//! Multicore scenario: the iso-power argument of Section 7.2.
//!
//! Runs one parallel application (Ocean by default; pass another name as an
//! argument) across the paper's multicore designs, and reports completion
//! time, chip power, and energy — showing that M3D-Het-2X runs twice the
//! cores of the 2D baseline at a similar power budget.
//!
//! ```text
//! cargo run --release --example multicore_scaling [app] [work_per_core]
//! ```

use m3d_core::configs::MulticoreDesign;
use m3d_core::planner::DesignSpace;
use m3d_power::model::CorePowerModel;
use m3d_uarch::multicore::Multicore;
use m3d_workloads::parallel::{parallel_by_name, splash_parsec};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let app_name = args.first().map(String::as_str).unwrap_or("Ocean");
    let work: u64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(80_000);
    let Some(app) = parallel_by_name(app_name) else {
        eprintln!("unknown app {app_name}; available:");
        for p in splash_parsec() {
            eprintln!("  {}", p.name);
        }
        std::process::exit(1);
    };

    eprintln!("[multicore_scaling] computing design space...");
    let space = DesignSpace::compute();
    let model = CorePowerModel::new_22nm();

    println!(
        "\n== {app_name}: {} uops/core across the Table 11 multicore designs ==\n",
        work
    );
    println!(
        "{:<12} {:>5} {:>9} {:>10} {:>9} {:>9} {:>9}",
        "design", "cores", "f (GHz)", "time/work", "speedup", "power", "energy"
    );
    let mut base_tpw = None;
    let mut base_epw = None;
    for d in MulticoreDesign::ALL {
        let cfg = d.core_config();
        let mut mc = Multicore::new(cfg.clone(), &app, 0xAB, d.n_cores());
        let _ = mc.run(work / 2); // warm-up
        let r = mc.run(work);
        let e = model.energy(&r, &d.power_config(&space));
        let tpw = r.time_s() / r.instructions as f64;
        let epw = e.total_j() / r.instructions as f64;
        let base_t = *base_tpw.get_or_insert(tpw);
        let base_e = *base_epw.get_or_insert(epw);
        println!(
            "{:<12} {:>5} {:>9.2} {:>7.2} ps {:>8.2}x {:>7.2} W {:>8.2}",
            d.label(),
            d.n_cores(),
            cfg.freq_ghz,
            tpw * 1e12,
            base_t / tpw,
            e.average_power_w(),
            epw / base_e,
        );
    }
    println!("\ntime/work = completion time per unit of total work;");
    println!("energy is per unit of work, normalised to the 4-core Base.");
    println!("M3D-Het-2X: twice the cores at reduced voltage — roughly double");
    println!("the throughput for a moderate power increase and less energy/work.");
}
