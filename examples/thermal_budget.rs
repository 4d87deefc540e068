//! Thermal scenario: how much power can each integration style dissipate
//! before the junction limit (~100 C)?
//!
//! Sweeps total core power for the planar 2D, M3D, and TSV3D stacks
//! (3D stacks fold the floorplan to half footprint and split power across
//! the two device layers), reporting the peak temperature and the maximum
//! sustainable power per stack — the quantitative form of the paper's
//! "M3D is thermally efficient; TSV3D is not" (Figure 8, Section 7.1.3).
//!
//! ```text
//! cargo run --release --example thermal_budget
//! ```

use m3d_tech::layers::{LayerStack, StackKind};
use m3d_thermal::floorplan::Floorplan;
use m3d_thermal::model::{shared_cache, ThermalConfig};

const TJMAX_C: f64 = 100.0;
const CORE_AREA_M2: f64 = 9.0e-6;

fn peak_at(stack: &LayerStack, power_w: f64) -> f64 {
    let (fp, powers) = if stack.kind == StackKind::Planar2d {
        let fp = Floorplan::ryzen_like(CORE_AREA_M2);
        let p = fp.uniform_power(power_w);
        (fp, vec![p])
    } else {
        let fp = Floorplan::ryzen_like(CORE_AREA_M2).scaled(0.5);
        let p = fp.uniform_power(power_w / 2.0);
        (fp, vec![p.clone(), p])
    };
    // The bisection below solves each stack dozens of times: fetch the
    // assembled model from the shared cache instead of rebuilding it.
    let fps = vec![fp; powers.len()];
    let (model, _) = shared_cache()
        .get_or_build(stack, &fps, &ThermalConfig::default())
        .expect("default config and ryzen floorplan are valid");
    model
        .solve(&powers)
        .expect("power maps match floorplans")
        .0
        .peak_c
}

fn main() {
    let stacks = [
        ("2D planar", LayerStack::planar_2d()),
        ("M3D", LayerStack::m3d()),
        ("TSV3D", LayerStack::tsv3d()),
    ];

    println!("== Peak temperature vs core power (ambient 45 C) ==\n");
    print!("{:<10}", "power");
    for (name, _) in &stacks {
        print!("{name:>10}");
    }
    println!();
    for power in [4.0, 6.4, 8.0, 10.0, 12.0, 16.0] {
        print!("{:<10}", format!("{power:.1} W"));
        for (_, stack) in &stacks {
            print!("{:>9.1}C", peak_at(stack, power));
        }
        println!();
    }

    println!("\n== Maximum power under Tjmax = {TJMAX_C} C (bisection) ==\n");
    for (name, stack) in &stacks {
        let (mut lo, mut hi) = (1.0f64, 60.0f64);
        for _ in 0..40 {
            let mid = 0.5 * (lo + hi);
            if peak_at(stack, mid) < TJMAX_C {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        println!("{name:<10} {:.1} W", 0.5 * (lo + hi));
    }
    println!("\nFolding to half footprint doubles power density, so both 3D");
    println!("stacks sustain less raw power than 2D — but M3D's sub-micron");
    println!("inter-layer dielectric buys it a ~30% higher budget than TSV3D,");
    println!("whose thick die-to-die bond traps the far layer's heat (Fig. 8).");
    println!("Since the M3D core also draws ~25% less power at the same work,");
    println!("its effective thermal headroom nearly matches the 2D core's.");
}
