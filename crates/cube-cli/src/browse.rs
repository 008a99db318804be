//! The interactive browser: `cube browse FILE`.
//!
//! Drives the display's two user actions — selecting a node and
//! expanding/collapsing a node — over a read–eval–print loop, so any
//! experiment (original or derived) can be explored exactly like in the
//! paper's GUI. Rows are addressed by the numbers printed in front of
//! them.
//!
//! ```text
//! command        effect
//! m <row>        select the metric-tree row
//! c <row>        select the call-tree row
//! x m <row>      expand/collapse a metric row
//! x c <row>      expand/collapse a call row
//! x s <row>      expand/collapse a system row
//! all | none     expand / collapse everything
//! mode abs|pct   absolute values / percent of root
//! flat | tree    flat-profile / call-tree program view
//! topo <n>       show topology heat view n
//! src            show the source location of the call selection
//! help           this list
//! q              quit
//! ```

use std::fmt::Write as _;
use std::io::BufRead;

use cube_display::{BrowserState, ProgramView, RenderOptions, Row, RowKind, ValueMode};
use cube_model::Experiment;

fn render_numbered(exp: &Experiment, state: &BrowserState, out: &mut String) {
    let panes: [(&str, Vec<Row>); 3] = [
        ("metric tree", state.metric_rows(exp)),
        ("call tree", state.program_rows(exp)),
        ("system tree", state.system_rows(exp)),
    ];
    for (title, rows) in panes {
        let _ = writeln!(out, "--- {title} ---");
        for (i, row) in rows.iter().enumerate() {
            let sel = if row.selected { '>' } else { ' ' };
            let expander = if row.has_children {
                if row.expanded {
                    '-'
                } else {
                    '+'
                }
            } else {
                ' '
            };
            let value = match state.value_mode {
                ValueMode::Absolute => format!("{:>12.6}", row.value),
                _ => format!("{:>11.1}%", row.value),
            };
            let _ = writeln!(
                out,
                "{i:>3}{sel}{value}{} {}{expander} {}",
                row.shade.relief.marker(),
                "  ".repeat(row.depth),
                row.label
            );
        }
    }
}

/// One step of the REPL: applies `command` to `state`. Returns `false`
/// when the session should end, `Err` for messages shown to the user
/// without ending the session.
fn apply(exp: &Experiment, state: &mut BrowserState, command: &str) -> Result<bool, String> {
    let words: Vec<&str> = command.split_whitespace().collect();
    let row_of = |pane: &str, idx_str: &str| -> Result<Row, String> {
        let idx: usize = idx_str
            .parse()
            .map_err(|_| format!("'{idx_str}' is not a row number"))?;
        let rows = match pane {
            "m" => state.metric_rows(exp),
            "c" => state.program_rows(exp),
            "s" => state.system_rows(exp),
            other => return Err(format!("unknown pane '{other}' (m, c, or s)")),
        };
        rows.get(idx)
            .cloned()
            .ok_or_else(|| format!("row {idx} is not visible"))
    };
    match words.as_slice() {
        [] => Ok(true),
        ["q"] | ["quit"] | ["exit"] => Ok(false),
        ["help"] | ["?"] => Err(
            "commands: m N | c N | x m N | x c N | x s N | all | none | \
                                 mode abs|pct | flat | tree | topo N | src | q"
                .to_string(),
        ),
        ["m", idx] => match row_of("m", idx)?.kind {
            RowKind::Metric(id) => {
                state.select_metric(id);
                Ok(true)
            }
            _ => Err("that row is not a metric".into()),
        },
        ["c", idx] => match row_of("c", idx)?.kind {
            RowKind::Call(id) => {
                state.select_call(id);
                Ok(true)
            }
            _ => Err("selection works on call-tree rows only (switch to 'tree')".into()),
        },
        ["x", pane, idx] => {
            match row_of(pane, idx)?.kind {
                RowKind::Metric(id) => {
                    state.toggle_metric(id);
                }
                RowKind::Call(id) => {
                    state.toggle_call(id);
                }
                RowKind::Machine(id) => {
                    state.toggle_machine(id);
                }
                RowKind::SystemNode(id) => {
                    state.toggle_node(id);
                }
                RowKind::Process(id) => {
                    state.toggle_process(id);
                }
                RowKind::Region(_) | RowKind::Thread(_) => {
                    return Err("that row has nothing to expand".into())
                }
            }
            Ok(true)
        }
        ["all"] => {
            state.expand_all(exp);
            Ok(true)
        }
        ["none"] => {
            state.collapse_all();
            Ok(true)
        }
        ["mode", "abs"] => {
            state.value_mode = ValueMode::Absolute;
            Ok(true)
        }
        ["mode", "pct"] => {
            state.value_mode = ValueMode::Percent;
            Ok(true)
        }
        ["src"] => Err(cube_display::render_source_pane(exp, state)),
        ["flat"] => {
            state.program_view = ProgramView::FlatProfile;
            Ok(true)
        }
        ["tree"] => {
            state.program_view = ProgramView::CallTree;
            Ok(true)
        }
        ["topo", idx] => {
            let idx: usize = idx
                .parse()
                .map_err(|_| format!("'{idx}' is not a topology index"))?;
            match cube_display::render_topology(exp, state, idx, RenderOptions::default()) {
                Some(view) => Err(view), // "message" channel doubles as output
                None => Err(format!("no renderable topology {idx}")),
            }
        }
        other => Err(format!(
            "unknown command {:?} — try 'help'",
            other.join(" ")
        )),
    }
}

/// Runs the browser loop over `input`, collecting everything that would
/// be printed. Separated from stdin/stdout for tests.
pub fn browse(exp: &Experiment, input: impl BufRead) -> String {
    let mut state = BrowserState::new(exp);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "browsing {} — 'help' lists commands, 'q' quits",
        exp.provenance().label()
    );
    render_numbered(exp, &state, &mut out);
    for line in input.lines() {
        let Ok(line) = line else { break };
        match apply(exp, &mut state, &line) {
            Ok(true) => render_numbered(exp, &state, &mut out),
            Ok(false) => break,
            Err(message) => {
                let _ = writeln!(out, "{message}");
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cube_model::builder::single_threaded_system;
    use cube_model::{ExperimentBuilder, RegionKind, Unit};

    fn sample() -> Experiment {
        let mut b = ExperimentBuilder::new("browse sample");
        let time = b.def_metric("time", Unit::Seconds, "", None);
        let mpi = b.def_metric("mpi", Unit::Seconds, "", Some(time));
        let m = b.def_module("a.c", "/a.c");
        let main_r = b.def_region("main", m, RegionKind::Function, 1, 9);
        let solve_r = b.def_region("solve", m, RegionKind::Function, 2, 8);
        let cs0 = b.def_call_site("a.c", 1, main_r);
        let cs1 = b.def_call_site("a.c", 3, solve_r);
        let root = b.def_call_node(cs0, None);
        let solve = b.def_call_node(cs1, Some(root));
        let ts = single_threaded_system(&mut b, 2);
        for &t in &ts {
            b.set_severity(time, root, t, 1.0);
            b.set_severity(time, solve, t, 3.0);
            b.set_severity(mpi, solve, t, 2.0);
        }
        b.build().unwrap()
    }

    fn run_session(script: &str) -> String {
        browse(&sample(), script.as_bytes())
    }

    #[test]
    fn initial_render_shows_numbered_rows() {
        let out = run_session("q\n");
        assert!(out.contains("browsing browse sample"));
        assert!(out.contains("  0>"), "row 0 selected: {out}");
        assert!(out.contains("+ time"));
    }

    #[test]
    fn expanding_reveals_children() {
        let out = run_session("x m 0\nq\n");
        assert!(out.contains("mpi"), "{out}");
        // After expansion the root shows its exclusive value 8−4=... the
        // sample: time total 8, mpi 4 → exclusive 4.
        let after = out.rsplit("--- metric tree ---").next().unwrap();
        assert!(after.contains("mpi"));
    }

    #[test]
    fn selection_changes_the_call_pane() {
        // Select mpi (row 1 after expanding), expand call tree: only the
        // solve path carries mpi severity.
        let out = run_session("x m 0\nm 1\nx c 0\nq\n");
        let last = out.rsplit("--- call tree ---").next().unwrap();
        let call_pane: String = last
            .lines()
            .take_while(|l| !l.starts_with("---"))
            .collect::<Vec<_>>()
            .join("\n");
        assert!(call_pane.contains("solve"));
        assert!(call_pane.contains("4.0"), "{call_pane}");
    }

    #[test]
    fn mode_and_view_switches() {
        let out = run_session("mode pct\nq\n");
        assert!(out.contains("100.0%"), "{out}");
        let out = run_session("flat\nq\n");
        assert!(out.contains("solve"));
    }

    #[test]
    fn errors_do_not_end_the_session() {
        let out = run_session("frobnicate\nx m 99\nmode pct\nq\n");
        assert!(out.contains("unknown command"));
        assert!(out.contains("row 99 is not visible"));
        assert!(out.contains("100.0%"), "session continued: {out}");
    }

    #[test]
    fn src_shows_source_location() {
        let out = run_session("src\nq\n");
        assert!(out.contains("--- source location ---"), "{out}");
        assert!(out.contains("a.c:1 -> main"), "{out}");
    }

    #[test]
    fn help_lists_commands() {
        let out = run_session("help\nq\n");
        assert!(out.contains("mode abs|pct"));
    }

    #[test]
    fn eof_ends_session() {
        let out = browse(&sample(), "".as_bytes());
        assert!(out.contains("metric tree"));
    }
}
