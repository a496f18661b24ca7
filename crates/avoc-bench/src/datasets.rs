//! Writes the reference datasets to CSV — the reproducibility artefact the
//! paper promises to release ("the resulting data, which we plan to
//! publicly release").
//!
//! Produces:
//! * `light_reference.csv` — UC-1, 5 sensors × 10 000 rounds (Fig. 6-a)
//! * `light_faulty_e4.csv` — UC-1 with the +6 klm injection (Fig. 6-c)
//! * `ble_stack_a.csv` / `ble_stack_b.csv` — UC-2, 9 beacons × 297 rounds
//! * `ble_positions.csv` — the robot's ground-truth position per round

use crate::Fig6Config;
use avoc_sim::{BleScenario, RecordedTrace};
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// Writes the five CSV files into `out_dir`, creating it, and names each
/// in `out`.
pub(crate) fn write(out: &mut impl Write, out_dir: &Path) -> io::Result<()> {
    std::fs::create_dir_all(out_dir)?;
    let create = |name: &str| -> io::Result<BufWriter<File>> {
        Ok(BufWriter::new(File::create(out_dir.join(name))?))
    };
    // Flushed by hand: dropping a `BufWriter` discards its write errors.
    let csv = |trace: &RecordedTrace, name: &str| -> io::Result<()> {
        let mut w = create(name)?;
        trace.write_csv(&mut w)?;
        w.flush()
    };

    let cfg = Fig6Config::default();
    let clean = cfg.clean_trace();
    let faulty = cfg.faulty_trace();
    csv(&clean, "light_reference.csv")?;
    csv(&faulty, "light_faulty_e4.csv")?;
    writeln!(
        out,
        "wrote {} ({clean})",
        out_dir.join("light_reference.csv").display()
    )?;
    writeln!(
        out,
        "wrote {} ({faulty})",
        out_dir.join("light_faulty_e4.csv").display()
    )?;

    let ble = BleScenario::paper_default(2022).generate();
    csv(&ble.stack_a, "ble_stack_a.csv")?;
    csv(&ble.stack_b, "ble_stack_b.csv")?;
    let mut pos = create("ble_positions.csv")?;
    writeln!(pos, "round,position_m,closest_stack")?;
    for (r, p) in ble.positions.iter().enumerate() {
        writeln!(
            pos,
            "{r},{p},{}",
            if ble.stack_a_closer(r) { "A" } else { "B" }
        )?;
    }
    pos.flush()?;
    writeln!(
        out,
        "wrote {} and stack B + positions ({})",
        out_dir.join("ble_stack_a.csv").display(),
        ble.stack_a
    )
}
