//! Request lines generated from the workload seed. The program sees only
//! these lines; the seed itself never reaches it.

use m3d_core::report::Json;
use m3d_perfbench::sched::Rng;

const SINGLE_APPS: [&str; 21] = [
    "Astar",
    "Bzip2",
    "Calculix",
    "Dealii",
    "Gamess",
    "Gcc",
    "Gems",
    "Gobmk",
    "Gromacs",
    "H264Ref",
    "Hmmer",
    "Lbm",
    "Libquantum",
    "Mcf",
    "Milc",
    "Namd",
    "Omnetpp",
    "Povray",
    "Sjeng",
    "Soplex",
    "Xalancbmk",
];
const SINGLE_DESIGNS: [&str; 6] = [
    "Base",
    "TSV3D",
    "M3D-Iso",
    "M3D-HetNaive",
    "M3D-Het",
    "M3D-HetAgg",
];
const MULTI_APPS: [&str; 13] = [
    "Barnes",
    "Blackscholes",
    "Canneal",
    "Cholesky",
    "Fft",
    "Fluidanimate",
    "Fmm",
    "Lu",
    "Ocean",
    "Radiosity",
    "Radix",
    "Raytrace",
    "Streamcluster",
];
const MULTI_DESIGNS: [&str; 5] = ["Base", "TSV3D", "M3D-Het", "M3D-Het-W", "M3D-Het-2X"];

/// Warm-up and measured µops of every generated point.
pub const WARMUP: u64 = 3_000;
/// Measured µops of a generated point.
pub const MEASURE: u64 = 2_000;

/// One simulation point's parameters.
fn point(app: &str, design: &str, n_cores: u64, seed: u64, warmup: u64, measure: u64) -> Json {
    Json::obj([
        ("app", Json::from(app)),
        ("design", Json::from(design)),
        ("seed", Json::from(seed)),
        ("n_cores", Json::from(n_cores)),
        ("warmup", Json::from(warmup)),
        ("measure", Json::from(measure)),
    ])
}

fn request(id: i64, method: &str, params: Json) -> String {
    Json::obj([
        ("id", Json::from(id)),
        ("method", Json::from(method)),
        ("params", params),
    ])
    .render_compact()
}

/// Single-core point `k` of a seeded family: the app and design cycle
/// through fixed lists, so every seed draws the same mix of shapes.
fn single(rng: &mut Rng, k: usize) -> Json {
    point(
        SINGLE_APPS[k % SINGLE_APPS.len()],
        SINGLE_DESIGNS[k % SINGLE_DESIGNS.len()],
        1,
        rng.next_u64() % 1_000_000,
        WARMUP,
        MEASURE,
    )
}

/// `n` single-point `sim` lines with ids from `first_id`, in seeded order.
pub fn sim_pool(seed: u64, stream: u64, first_id: i64, n: usize) -> Vec<String> {
    let mut rng = Rng::new(seed, stream);
    let mut pts: Vec<Json> = (0..n).map(|k| single(&mut rng, k)).collect();
    rng.shuffle(&mut pts);
    pts.into_iter()
        .enumerate()
        .map(|(i, p)| request(first_id + i as i64, "sim", p))
        .collect()
}

/// `n` `sim` lines of `width` single-core points each.
pub fn fanout_pool(seed: u64, first_id: i64, n: usize, width: usize) -> Vec<String> {
    let mut rng = Rng::new(seed, 3);
    (0..n)
        .map(|i| {
            let pts = (0..width).map(|j| single(&mut rng, i * width + j));
            request(
                first_id + i as i64,
                "sim",
                Json::obj([("points", Json::arr(pts))]),
            )
        })
        .collect()
}

/// `n` cold `sim` misses. They come in pairs: the second of a pair has
/// the first's app, design, seed and warm-up and differs only in its
/// measured window, so the two share a warm-up checkpoint when they are
/// batched together. Every third pair is a 4-core point, with windows a
/// quarter as long so that it costs about as much as a single-core one.
pub fn miss_pairs(seed: u64, first_id: i64, pairs: usize) -> Vec<[String; 2]> {
    let mut rng = Rng::new(seed, 4);
    (0..pairs)
        .map(|k| {
            let s = rng.next_u64() % 1_000_000;
            let (app, design, cores) = if k % 3 == 2 {
                (
                    MULTI_APPS[k % MULTI_APPS.len()],
                    MULTI_DESIGNS[k % MULTI_DESIGNS.len()],
                    4,
                )
            } else {
                (
                    SINGLE_APPS[k % SINGLE_APPS.len()],
                    SINGLE_DESIGNS[k % SINGLE_DESIGNS.len()],
                    1,
                )
            };
            let (w, m) = (WARMUP / cores, MEASURE / cores);
            let id = first_id + 2 * k as i64;
            [
                request(id, "sim", point(app, design, cores, s, w, m)),
                request(id + 1, "sim", point(app, design, cores, s, w, m + m / 4)),
            ]
        })
        .collect()
}

/// The search spec of a small `plan`: one app, two designs, two supply
/// voltages (four candidates) at a seeded trace seed.
pub fn plan_spec(rng: &mut Rng, k: usize) -> Json {
    Json::obj([
        (
            "apps",
            Json::arr([Json::from(SINGLE_APPS[(k * 7) % SINGLE_APPS.len()])]),
        ),
        (
            "designs",
            Json::arr([Json::from("Base"), Json::from("M3D-Het")]),
        ),
        ("vdds", Json::arr([Json::from(0.8), Json::from(0.9)])),
        ("seed", Json::from(rng.next_u64() % 1_000_000)),
        ("warmup", Json::from(WARMUP)),
        ("measure", Json::from(MEASURE)),
    ])
}

/// `n` small `plan` lines.
pub fn plans(seed: u64, stream: u64, first_id: i64, n: usize) -> Vec<String> {
    let mut rng = Rng::new(seed, stream);
    (0..n)
        .map(|k| request(first_id + k as i64, "plan", plan_spec(&mut rng, k)))
        .collect()
}

/// A `stats` or `telemetry` request line.
pub fn admin(id: i64, method: &str) -> String {
    request(id, method, Json::obj(Vec::<(String, Json)>::new()))
}
