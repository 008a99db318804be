//! Seeded inputs: the experiment corpus, the upload templates, and the
//! request streams of every workload.
//!
//! Everything here is a pure function of the seed, so two runs with the
//! same seed send the program byte-identical files and requests. The
//! generator lives in this crate rather than reusing the microbenchmark
//! generators, so an edit to a microbenchmark cannot change these inputs.

use cube_algebra::{BatchOperand, BatchPlan, MergeOptions};
use cube_model::builder::single_threaded_system;
use cube_model::{Experiment, ExperimentBuilder, RegionKind, Unit};
use cube_xml::footer::{crc32, footer_line};
use cube_xml::write_experiment;

/// SplitMix64: small, fast, and fully determined by its state.
#[derive(Clone, Debug)]
struct Rng(u64);

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    /// The generator for item `n` of stream `stream` under `seed`,
    /// independent of every other item, so no draw depends on how many
    /// draws came before it or from which thread.
    fn at(seed: u64, stream: u64, n: u64) -> Self {
        Rng(mix(
            mix(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)) ^ n
        ))
    }

    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Shuffles `items` uniformly (Fisher–Yates).
    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in 0..items.len() {
            let j = i + self.below(items.len() - i);
            items.swap(i, j);
        }
    }

    /// `k` distinct values of `range`, in random order.
    fn pick(&mut self, range: std::ops::Range<usize>, k: usize) -> Vec<usize> {
        let mut all: Vec<usize> = range.collect();
        self.shuffle(&mut all);
        all.truncate(k);
        all
    }
}

const STREAM_VALUES: u64 = 1;
const STREAM_LISTS: u64 = 2;
const STREAM_MISS: u64 = 3;
const STREAM_HIT: u64 = 4;
const STREAM_SAMPLE: u64 = 5;

/// Severity dimensions of one experiment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Shape {
    /// Metrics.
    pub metrics: usize,
    /// Call-tree nodes.
    pub call_nodes: usize,
    /// Single-threaded ranks.
    pub threads: usize,
}

impl Shape {
    /// Severity values per experiment.
    pub fn values(&self) -> usize {
        self.metrics * self.call_nodes * self.threads
    }
}

/// The input sizes of one benchmark scale.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Shape of the series A and B experiments (corpus and CLI inputs).
    pub series: Shape,
    /// Shape of the `ingest-eval` uploads.
    pub upload: Shape,
}

/// The benchmark's scale: 153,600-value runs, 38,400-value uploads.
pub const FULL: Scale = Scale {
    series: Shape {
        metrics: 12,
        call_nodes: 800,
        threads: 16,
    },
    upload: Shape {
        metrics: 12,
        call_nodes: 200,
        threads: 16,
    },
};

/// One hundredth of [`FULL`], for the smoke test.
pub const SMOKE: Scale = Scale {
    series: Shape {
        metrics: 12,
        call_nodes: 8,
        threads: 16,
    },
    upload: Shape {
        metrics: 12,
        call_nodes: 2,
        threads: 16,
    },
};

/// Experiments of series A share all metadata. Series B shares every
/// other metric and every other call path with A, so an operand list
/// that mixes the two must be integrated and gathered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// Series A.
    A,
    /// Series B.
    B,
}

/// Builds one experiment of `family` with seeded, positive severities
/// rounded to microseconds, as a profiler's timer would record them.
fn experiment(shape: Shape, family: Family, label: String, rng: &mut Rng) -> Experiment {
    let own = |i: usize| family == Family::A || i.is_multiple_of(2);
    let mut b = ExperimentBuilder::new(label);
    let root = b.def_metric("m0", Unit::Seconds, "", None);
    let mut metrics = vec![root];
    for i in 1..shape.metrics {
        let name = if own(i) {
            format!("m{i}")
        } else {
            format!("x{i}")
        };
        let parent = if i % 4 == 0 { metrics[i - 1] } else { root };
        metrics.push(b.def_metric(name, Unit::Seconds, "", Some(parent)));
    }
    let module = b.def_module("app.c", "/src/app.c");
    let mut cnodes = Vec::with_capacity(shape.call_nodes);
    for i in 0..shape.call_nodes {
        let name = if own(i) {
            format!("r{i}")
        } else {
            format!("y{i}")
        };
        let line = i as u32 + 1;
        let region = b.def_region(name, module, RegionKind::Function, line, line);
        let cs = b.def_call_site("app.c", line, region);
        let parent = match i {
            0 => None,
            _ if i % 3 == 0 => Some(cnodes[i - 1]),
            _ => Some(cnodes[i / 3]),
        };
        cnodes.push(b.def_call_node(cs, parent));
    }
    let threads = single_threaded_system(&mut b, shape.threads);
    for &m in &metrics {
        for &c in &cnodes {
            for &t in &threads {
                let v = rng.unit() * 10.0 + 0.001;
                b.set_severity(m, c, t, (v * 1e6).round() / 1e6);
            }
        }
    }
    b.build().expect("generated experiments are valid")
}

/// A document exactly as `cube` writes it to disk: the XML body plus
/// the checksum footer line.
pub fn render(exp: &Experiment) -> Vec<u8> {
    let mut bytes = write_experiment(exp).into_bytes();
    let line = footer_line(crc32(&bytes), bytes.len() as u64);
    bytes.extend_from_slice(line.as_bytes());
    bytes
}

/// Series A runs in the corpus.
pub const SERIES_A: usize = 16;
/// Series B runs in the corpus.
pub const SERIES_B: usize = 8;
/// Operand lists drawn within series A.
pub const LISTS_A: usize = 18;
/// Operand lists mixing series A and B.
pub const LISTS_MIXED: usize = 6;
/// Fixed expressions of the `eval-hit` workload.
pub const HIT_EXPRS: usize = 8;

/// Corpus object `index`: series A for `0..SERIES_A`, series B after.
pub fn corpus_experiment(seed: u64, scale: Scale, index: usize) -> Experiment {
    let (family, tag) = if index < SERIES_A {
        (Family::A, "a")
    } else {
        (Family::B, "b")
    };
    let mut rng = Rng::at(seed, STREAM_VALUES, index as u64);
    let label = format!("series {tag} run {index} (seed {seed})");
    experiment(scale.series, family, label, &mut rng)
}

/// One stored experiment: the model, the bytes uploaded, the content id
/// the repository files it under.
pub struct Object {
    /// The experiment.
    pub exp: Experiment,
    /// Its `.cube` document, footer included.
    pub xml: Vec<u8>,
    /// Its repository content id.
    pub id: String,
}

/// The serve workloads' repository content and request streams.
pub struct Corpus {
    /// The seed everything derives from.
    pub seed: u64,
    /// Series A then series B.
    pub objects: Vec<Object>,
    /// The fixed family of operand lists, as object indices:
    /// [`LISTS_A`] within series A, then [`LISTS_MIXED`] mixed ones.
    pub lists: Vec<Vec<usize>>,
    /// The `eval-hit` expressions.
    pub hit_exprs: Vec<String>,
    /// The order `eval-miss` requests walk every (list, shape) pair in.
    miss_order: Vec<(usize, usize)>,
    /// The order `eval-hit` requests walk the hit expressions in.
    hit_order: Vec<usize>,
}

/// Expression shapes over one operand list.
const SHAPES: usize = 4;
/// `eval-miss` requests before the stream has used every (operand list,
/// shape) pair once.
pub const MISS_CYCLE: usize = (LISTS_A + LISTS_MIXED) * SHAPES;

/// The four expression shapes over one operand list.
fn shaped(shape: usize, ids: &[&str]) -> String {
    let all = ids.join(",");
    match shape {
        0 => format!("mean({all})"),
        1 => format!("stddev({all})"),
        2 => format!("max({all})"),
        _ => {
            let h = ids.len() / 2;
            format!(
                "diff(mean({}),mean({}))",
                ids[..h].join(","),
                ids[h..].join(",")
            )
        }
    }
}

impl Corpus {
    /// Generates the corpus of `seed` at `scale`.
    pub fn generate(seed: u64, scale: Scale) -> Self {
        let objects = (0..SERIES_A + SERIES_B)
            .map(|i| {
                let exp = corpus_experiment(seed, scale, i);
                let xml = render(&exp);
                let id = cube_serve::content_id(&cube_store::write_store(&exp));
                Object { exp, xml, id }
            })
            .collect();
        // List lengths are fixed and only the members are drawn, so every
        // seed asks the same amount of work of the program.
        let mut rng = Rng::at(seed, STREAM_LISTS, 0);
        let mut lists = Vec::with_capacity(LISTS_A + LISTS_MIXED);
        for j in 0..LISTS_A {
            lists.push(rng.pick(0..SERIES_A, 2 + j % 7));
        }
        for j in 0..LISTS_MIXED {
            let mut list = rng.pick(0..SERIES_A, 1 + j % 4);
            list.extend(rng.pick(SERIES_A..SERIES_A + SERIES_B, 1 + (j + 1) % 4));
            lists.push(list);
        }
        // `eval-miss` walks the lists in a seeded order and sends each
        // list's four shapes, in a seeded order, one after another. Each
        // cycle then builds every list's plan once and finds it cached
        // three times (24 lists overflow the 16-entry plan cache between
        // visits), for every seed: a seeded shuffle of all 96 requests
        // would make the plan-cache hit rate, and so the work, depend on
        // the seed (from 43 % to 66 % over ten seeds).
        let mut rng = Rng::at(seed, STREAM_MISS, 0);
        let mut list_order: Vec<usize> = (0..lists.len()).collect();
        rng.shuffle(&mut list_order);
        let mut miss_order = Vec::with_capacity(MISS_CYCLE);
        for l in list_order {
            let mut shapes: Vec<usize> = (0..SHAPES).collect();
            rng.shuffle(&mut shapes);
            miss_order.extend(shapes.into_iter().map(|s| (l, s)));
        }
        let mut hit_order: Vec<usize> = (0..HIT_EXPRS).collect();
        Rng::at(seed, STREAM_HIT, 0).shuffle(&mut hit_order);
        let mut corpus = Corpus {
            seed,
            objects,
            lists,
            hit_exprs: Vec::new(),
            miss_order,
            hit_order,
        };
        corpus.hit_exprs = (0..HIT_EXPRS)
            .map(|j| shaped(j % SHAPES, &corpus.ids(j)))
            .collect();
        corpus
    }

    fn ids(&self, list: usize) -> Vec<&str> {
        self.lists[list]
            .iter()
            .map(|&i| self.objects[i].id.as_str())
            .collect()
    }

    /// Request `n` of `eval-miss`: one shape over one list of the family,
    /// wrapped in a scale factor unique to `n` so that it misses the
    /// result cache while its operand list may still hit the plan cache.
    pub fn miss_expr(&self, n: u64) -> String {
        let (list, shape) = self.miss_order[n as usize % self.miss_order.len()];
        let factor = 1.0 + (n + 1) as f64 * 1e-9;
        format!("scale({},{factor})", shaped(shape, &self.ids(list)))
    }

    /// Request `n` of `eval-hit`: an index into [`Corpus::hit_exprs`].
    pub fn hit_index(&self, n: u64) -> usize {
        self.hit_order[n as usize % self.hit_order.len()]
    }

    /// The experiment stored under `id`.
    pub fn by_id(&self, id: &str) -> Option<&Experiment> {
        self.objects.iter().find(|o| o.id == id).map(|o| &o.exp)
    }
}

/// Whether item `n` of `stream` is in the byte-checked sample, which
/// holds `per_mille` of every thousand items.
pub fn sampled(seed: u64, stream: u64, n: u64, per_mille: u64) -> bool {
    Rng::at(seed, STREAM_SAMPLE ^ (stream << 8), n).next_u64() % 1000 < per_mille
}

/// The severity value that marks the patch point of the upload template;
/// it renders as the unique eight-digit token `10000000`.
const MARKER: f64 = 10_000_000.0;
const MARKER_TOKEN: &[u8] = b"10000000";
/// Upload keys stay below this, so every marker stays 8 digits.
pub const MAX_UPLOADS: u64 = 90_000_000;

/// The `ingest-eval` uploads: one generated document whose marker value
/// is rewritten per upload key, so every upload is new to the repository
/// while costing the client one copy to produce.
pub struct Uploads {
    exp: Experiment,
    xml: Vec<u8>,
    marker_at: usize,
}

impl Uploads {
    /// The template under `seed`.
    pub fn new(seed: u64, scale: Scale) -> Self {
        let mut rng = Rng::at(seed, STREAM_VALUES, 1000);
        let label = format!("upload (seed {seed})");
        let mut exp = experiment(scale.upload, Family::A, label, &mut rng);
        exp.severity_mut().values_mut()[0] = MARKER;
        let xml = write_experiment(&exp).into_bytes();
        let hits: Vec<usize> = xml
            .windows(MARKER_TOKEN.len())
            .enumerate()
            .filter(|(_, w)| *w == MARKER_TOKEN)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(hits.len(), 1, "the marker token is unique in the template");
        Uploads {
            exp,
            xml,
            marker_at: hits[0],
        }
    }

    fn value(&self, key: u64) -> f64 {
        assert!(key < MAX_UPLOADS, "upload key out of range");
        MARKER + key as f64
    }

    /// The document of upload `key` (no footer, as a tool would send it).
    pub fn body(&self, key: u64) -> Vec<u8> {
        let mut xml = self.xml.clone();
        let token = format!("{}", self.value(key));
        xml[self.marker_at..self.marker_at + MARKER_TOKEN.len()].copy_from_slice(token.as_bytes());
        xml
    }

    /// Upload `key` as an experiment.
    pub fn experiment(&self, key: u64) -> Experiment {
        let mut exp = self.exp.clone();
        exp.severity_mut().values_mut()[0] = self.value(key);
        exp
    }
}

/// The `ingest-eval` expression over a client's four newest uploads.
pub fn upload_expr(ids: [&str; 4]) -> String {
    format!(
        "diff(mean({},{}),mean({},{}))",
        ids[0], ids[1], ids[2], ids[3]
    )
}

/// The reference answer: evaluates `expr` with the library over
/// `resolve`d operands and renders it as `/eval` and `cube stats` do.
pub fn reference<'a>(
    expr: &str,
    resolve: impl Fn(&str) -> Option<&'a Experiment>,
) -> Result<Vec<u8>, String> {
    let parsed = cube_algebra::parse_expr(expr).map_err(|e| e.to_string())?;
    let ops = parsed
        .operands
        .iter()
        .map(|name| {
            resolve(name)
                .map(|e| e as &dyn BatchOperand)
                .ok_or(format!("no operand {name}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let plan = BatchPlan::from_operands(&ops, MergeOptions::default());
    let exp = plan.eval(&parsed.expr).map_err(|e| e.to_string())?;
    Ok(render(&exp))
}
