//! Text rendering of the three-pane browser.
//!
//! Renders [`Row`]s as indented tree listings. With ANSI enabled the
//! severity color ranking appears as a colored block glyph; the sign
//! relief renders as `+`/`-` markers on the value. Rendering is pure
//! string production — deterministic and testable.

use std::fmt::Write as _;

use cube_model::Experiment;

use crate::color::ColorScale;
use crate::view::{BrowserState, Row, ValueMode};

/// Rendering switches.
#[derive(Clone, Copy, Debug, Default)]
pub struct RenderOptions {
    /// Emit ANSI color escapes.
    pub ansi: bool,
}

/// Total width of the value column.
const VALUE_WIDTH: usize = 12;

fn format_value(row: &Row, mode: &ValueMode) -> String {
    let body = match mode {
        ValueMode::Absolute => {
            if row.value == 0.0 {
                "0".to_string()
            } else if row.value.abs() >= 1e6 || row.value.abs() < 1e-3 {
                format!("{:.3e}", row.value)
            } else {
                format!("{:.3}", row.value)
            }
        }
        ValueMode::Percent | ValueMode::PercentNormalized(_) => format!("{:.1}%", row.value),
    };
    format!("{body:>VALUE_WIDTH$}")
}

fn render_rows(rows: &[Row], mode: &ValueMode, opts: RenderOptions, out: &mut String) {
    for row in rows {
        let block = if opts.ansi {
            format!(
                "{}■{}",
                ColorScale::ansi_color(row.shade.bucket),
                ColorScale::ANSI_RESET
            )
        } else {
            // Plain mode: digit block makes the ranking visible in tests
            // and logs.
            format!("{}", row.shade.bucket)
        };
        let expander = if row.has_children {
            if row.expanded {
                '-'
            } else {
                '+'
            }
        } else {
            ' '
        };
        let sel = if row.selected { '>' } else { ' ' };
        let indent = "  ".repeat(row.depth);
        let value = format_value(row, mode);
        let relief = row.shade.relief.marker();
        let _ = writeln!(
            out,
            "{sel}{value}{relief} {block} {indent}{expander} {label}",
            label = row.label
        );
    }
}

/// Renders the metric tree pane.
pub fn render_metric_tree(exp: &Experiment, state: &BrowserState, opts: RenderOptions) -> String {
    let mut out = String::new();
    render_rows(&state.metric_rows(exp), &state.value_mode, opts, &mut out);
    out
}

/// Renders the program pane (call tree or flat profile).
pub fn render_call_tree(exp: &Experiment, state: &BrowserState, opts: RenderOptions) -> String {
    let mut out = String::new();
    render_rows(&state.program_rows(exp), &state.value_mode, opts, &mut out);
    out
}

/// Renders the system tree pane.
pub fn render_system_tree(exp: &Experiment, state: &BrowserState, opts: RenderOptions) -> String {
    let mut out = String::new();
    render_rows(&state.system_rows(exp), &state.value_mode, opts, &mut out);
    out
}

/// Renders all three panes stacked, with headers — the textual analogue
/// of the paper's Figure 1 layout.
pub fn render_view(exp: &Experiment, state: &BrowserState, opts: RenderOptions) -> String {
    let md = exp.metadata();
    let metric_name = &md.metric(state.selected_metric()).name;
    let call_name = &md.region(md.call_node_callee(state.selected_call())).name;
    let mode = match &state.value_mode {
        ValueMode::Absolute => "absolute".to_string(),
        ValueMode::Percent => "percent of root".to_string(),
        ValueMode::PercentNormalized(_) => "percent, normalized to reference".to_string(),
    };
    let mut out = String::new();
    let _ = writeln!(out, "experiment: {}", exp.provenance().label());
    let _ = writeln!(
        out,
        "selection: metric '{metric_name}', call path '{call_name}'  [{mode}]"
    );
    let _ = writeln!(out, "--- metric tree ---");
    out.push_str(&render_metric_tree(exp, state, opts));
    let _ = writeln!(out, "--- call tree ---");
    out.push_str(&render_call_tree(exp, state, opts));
    let _ = writeln!(out, "--- system tree ---");
    out.push_str(&render_system_tree(exp, state, opts));
    out
}

/// Renders the source-location pane for the current call selection —
/// the paper's GUI "includes a source-code display that shows the exact
/// position of a performance problem in the source code". Without
/// source files on disk, the pane reports the call site and the callee
/// region's extent, which is what the GUI would scroll to.
pub fn render_source_pane(exp: &Experiment, state: &BrowserState) -> String {
    let md = exp.metadata();
    let cnode = state.selected_call();
    let site = md.call_site(md.call_node(cnode).call_site);
    let region = md.region(site.callee);
    let module = md.module(region.module);
    let mut out = String::new();
    let _ = writeln!(out, "--- source location ---");
    let _ = writeln!(
        out,
        "call site:  {}:{} -> {}",
        site.file, site.line, region.name
    );
    let _ = writeln!(
        out,
        "callee:     {} ({}) lines {}..{} in module {}",
        region.name,
        region.kind.as_str(),
        region.begin_line,
        region.end_line,
        module.name
    );
    let _ = writeln!(out, "call path:  {}", md.call_path(cnode).join(" / "));
    out
}

/// Renders a Cartesian topology heat view for the current metric and
/// call-path selections — the visualization the paper's future work
/// anticipates for topology data.
///
/// 1-D topologies render as one row, 2-D as a grid (x across, y down).
/// Each occupied cell shows the severity color bucket of the process at
/// that coordinate (aggregated over its threads), ranked against the
/// topology's own maximum; `·` marks unoccupied coordinates. Returns
/// `None` when the experiment has no topology at `index` or its
/// dimensionality exceeds 2.
pub fn render_topology(
    exp: &Experiment,
    state: &BrowserState,
    index: usize,
    opts: RenderOptions,
) -> Option<String> {
    use cube_model::aggregate::process_value;

    let md = exp.metadata();
    let topo = md.topologies().get(index)?;
    if topo.ndims() == 0 || topo.ndims() > 2 {
        return None;
    }
    let (nx, ny) = (
        topo.dims[0] as usize,
        if topo.ndims() == 2 {
            topo.dims[1] as usize
        } else {
            1
        },
    );
    let msel = state.metric_selection_view();
    let csel = state.call_selection_view();

    // Values per coordinate.
    let mut values = vec![vec![None::<f64>; nx]; ny];
    let mut max_abs = 0.0f64;
    for (p, c) in &topo.coords {
        let x = c[0] as usize;
        let y = if topo.ndims() == 2 { c[1] as usize } else { 0 };
        let v = process_value(exp, msel, csel, *p);
        max_abs = max_abs.max(v.abs());
        values[y][x] = Some(v);
    }
    let scale = ColorScale::new(max_abs);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "topology '{}' ({}) — metric '{}', severity heat",
        topo.name,
        topo.dims
            .iter()
            .map(u32::to_string)
            .collect::<Vec<_>>()
            .join("x"),
        md.metric(msel.metric).name,
    );
    for row in &values {
        for cell in row {
            match cell {
                Some(v) => {
                    let shade = scale.shade(*v);
                    if opts.ansi {
                        let _ = write!(
                            out,
                            "{}■{} ",
                            ColorScale::ansi_color(shade.bucket),
                            ColorScale::ANSI_RESET
                        );
                    } else {
                        let _ = write!(out, "{}{}", shade.bucket, shade.relief.marker());
                    }
                }
                None => {
                    let _ = write!(out, "· ");
                }
            }
        }
        out.push('\n');
    }
    let legend: Vec<String> = scale
        .legend()
        .iter()
        .map(|(b, lo)| format!("{b}≥{lo:.3e}"))
        .collect();
    let _ = writeln!(out, "legend: {}", legend.join("  "));
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cube_model::builder::single_threaded_system;
    use cube_model::{ExperimentBuilder, MetricId, RegionKind, Unit};

    fn sample() -> Experiment {
        let mut b = ExperimentBuilder::new("render sample");
        let time = b.def_metric("time", Unit::Seconds, "", None);
        let mpi = b.def_metric("mpi", Unit::Seconds, "", Some(time));
        let m = b.def_module("a.c", "/a.c");
        let main_r = b.def_region("main", m, RegionKind::Function, 1, 99);
        let solve_r = b.def_region("solve", m, RegionKind::Function, 5, 50);
        let cs0 = b.def_call_site("a.c", 1, main_r);
        let cs1 = b.def_call_site("a.c", 10, solve_r);
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

    #[test]
    fn render_marks_selection_and_expander() {
        let e = sample();
        let state = BrowserState::new(&e);
        let s = render_metric_tree(&e, &state, RenderOptions::default());
        assert!(s.starts_with('>'), "selected row marked: {s}");
        assert!(s.contains("+ time"), "collapsed expandable node: {s}");
    }

    #[test]
    fn render_shows_indentation() {
        let e = sample();
        let mut state = BrowserState::new(&e);
        state.toggle_metric(MetricId::new(0));
        let s = render_metric_tree(&e, &state, RenderOptions::default());
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("- time"), "expanded marker: {}", lines[0]);
        assert!(lines[1].contains("   mpi") || lines[1].contains("  mpi"));
    }

    #[test]
    fn percent_mode_formats_with_percent_sign() {
        let e = sample();
        let mut state = BrowserState::new(&e);
        state.value_mode = crate::view::ValueMode::Percent;
        let s = render_metric_tree(&e, &state, RenderOptions::default());
        assert!(s.contains("100.0%"), "{s}");
    }

    #[test]
    fn negative_values_render_minus_relief() {
        let e = sample();
        let d = cube_algebra::ops::scale(&e, -1.0);
        let state = BrowserState::new(&d);
        let s = render_metric_tree(&d, &state, RenderOptions::default());
        // The relief marker column carries '-'.
        assert!(s.contains("- "), "{s}");
        assert!(s.contains("-8"), "negative value shown: {s}");
    }

    #[test]
    fn ansi_mode_emits_escapes() {
        let e = sample();
        let state = BrowserState::new(&e);
        let plain = render_metric_tree(&e, &state, RenderOptions::default());
        let ansi = render_metric_tree(&e, &state, RenderOptions { ansi: true });
        assert!(!plain.contains('\x1b'));
        assert!(ansi.contains('\x1b'));
    }

    #[test]
    fn full_view_contains_all_panes() {
        let e = sample();
        let state = BrowserState::new(&e);
        let s = render_view(&e, &state, RenderOptions::default());
        assert!(s.contains("--- metric tree ---"));
        assert!(s.contains("--- call tree ---"));
        assert!(s.contains("--- system tree ---"));
        assert!(s.contains("render sample"));
        assert!(s.contains("metric 'time'"));
    }

    #[test]
    fn source_pane_shows_selected_call_site() {
        let e = sample();
        let mut state = BrowserState::new(&e);
        state.select_call_by_region(&e, "solve");
        let s = render_source_pane(&e, &state);
        assert!(s.contains("a.c:10 -> solve"), "{s}");
        assert!(s.contains("lines 5..50"), "{s}");
        assert!(s.contains("main / solve"), "{s}");
    }

    #[test]
    fn topology_heat_view() {
        // 2x2 grid over 4 ranks with distinct severities.
        let mut b = ExperimentBuilder::new("topo");
        let t = b.def_metric("time", Unit::Seconds, "", None);
        let m = b.def_module("a", "a");
        let r = b.def_region("main", m, RegionKind::Function, 1, 1);
        let cs = b.def_call_site("a", 1, r);
        let root = b.def_call_node(cs, None);
        let ts = single_threaded_system(&mut b, 4);
        for (i, &tid) in ts.iter().enumerate() {
            b.set_severity(t, root, tid, (i + 1) as f64);
        }
        let mut topo = cube_model::CartTopology::new("grid", vec![2, 2], vec![false, false]);
        for (i, (x, y)) in [(0u32, 0u32), (1, 0), (0, 1), (1, 1)].iter().enumerate() {
            topo.coords
                .push((cube_model::ProcessId::new(i as u32), vec![*x, *y]));
        }
        b.def_topology(topo);
        let e = b.build().unwrap();

        let state = BrowserState::new(&e);
        let s = render_topology(&e, &state, 0, RenderOptions::default()).unwrap();
        assert!(s.contains("topology 'grid' (2x2)"));
        let grid_lines: Vec<&str> = s.lines().skip(1).take(2).collect();
        assert_eq!(grid_lines.len(), 2);
        // Rank 3 (value 4) is the hottest: bucket 7 in the last cell.
        assert!(grid_lines[1].trim_end().ends_with("7+"), "{s}");
        assert!(s.contains("legend:"));

        // Out-of-range index and missing topology return None.
        assert!(render_topology(&e, &state, 1, RenderOptions::default()).is_none());
    }

    #[test]
    fn topology_marks_holes() {
        let mut b = ExperimentBuilder::new("holes");
        let t = b.def_metric("time", Unit::Seconds, "", None);
        let m = b.def_module("a", "a");
        let r = b.def_region("main", m, RegionKind::Function, 1, 1);
        let cs = b.def_call_site("a", 1, r);
        let root = b.def_call_node(cs, None);
        let ts = single_threaded_system(&mut b, 1);
        b.set_severity(t, root, ts[0], 1.0);
        let mut topo = cube_model::CartTopology::new("line", vec![3], vec![true]);
        topo.coords.push((cube_model::ProcessId::new(0), vec![1]));
        b.def_topology(topo);
        let e = b.build().unwrap();
        let state = BrowserState::new(&e);
        let s = render_topology(&e, &state, 0, RenderOptions::default()).unwrap();
        let grid = s.lines().nth(1).unwrap();
        assert!(grid.starts_with("· "), "{grid}");
        assert!(grid.contains("7+"), "{grid}");
    }

    #[test]
    fn large_and_tiny_absolutes_use_scientific_notation() {
        let mut b = ExperimentBuilder::new("sci");
        let t = b.def_metric("flops", Unit::Occurrences, "", None);
        let m = b.def_module("a", "a");
        let r = b.def_region("main", m, RegionKind::Function, 1, 1);
        let cs = b.def_call_site("a", 1, r);
        let root = b.def_call_node(cs, None);
        let ts = single_threaded_system(&mut b, 1);
        b.set_severity(t, root, ts[0], 2.5e9);
        let e = b.build().unwrap();
        let state = BrowserState::new(&e);
        let s = render_metric_tree(&e, &state, RenderOptions::default());
        assert!(
            s.contains("e9") || s.contains("e+9") || s.contains("2.500e9"),
            "{s}"
        );
    }
}
