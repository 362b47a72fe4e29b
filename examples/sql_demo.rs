//! The DBMS substrate as a standalone library: drive it with SQL, then
//! replay the operations it generated inside a confidential VM.
//!
//! Run with: `cargo run --example sql_demo`

use std::error::Error;

use confbench_minidb::{run_sql, Database, SqlOutput};
use confbench_types::{TeePlatform, VmTarget};
use confbench_vmm::TeeVmBuilder;

fn main() -> Result<(), Box<dyn Error>> {
    let mut db = Database::new();
    let outputs = run_sql(
        &mut db,
        "
        CREATE TABLE measurements (tee TEXT, workload TEXT, ratio REAL);
        CREATE INDEX by_tee ON measurements (tee);
        BEGIN;
        INSERT INTO measurements VALUES ('tdx',     'iostress', 1.97);
        INSERT INTO measurements VALUES ('sev-snp', 'iostress', 1.47);
        INSERT INTO measurements VALUES ('cca',     'iostress', 3.41);
        INSERT INTO measurements VALUES ('tdx',     'cpustress', 1.00);
        INSERT INTO measurements VALUES ('sev-snp', 'cpustress', 1.01);
        INSERT INTO measurements VALUES ('cca',     'cpustress', 1.15);
        COMMIT;
        SELECT workload, ratio FROM measurements
            WHERE tee = 'tdx' ORDER BY ratio DESC;
        UPDATE measurements SET ratio = 1.05 WHERE tee = 'sev-snp' AND workload = 'cpustress';
        SELECT tee, ratio FROM measurements WHERE workload = 'iostress' ORDER BY ratio;
        ",
    )?;

    for out in &outputs {
        if let SqlOutput::Rows { columns, rows } = out {
            println!("{}", columns.join(" | "));
            for row in rows {
                let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
                println!("{}", cells.join(" | "));
            }
            println!();
        }
    }

    // Everything the engine just did was recorded as an operation trace —
    // replay it in a TDX trust domain vs its baseline.
    let trace = db.take_trace();
    let mut secure = TeeVmBuilder::new(VmTarget::secure(TeePlatform::Tdx)).seed(7).build();
    let mut normal = TeeVmBuilder::new(VmTarget::normal(TeePlatform::Tdx)).seed(7).build();
    let s = secure.try_execute(&trace)?;
    let n = normal.try_execute(&trace)?;
    println!(
        "replaying this SQL session: {:.4} ms in a TDX trust domain vs {:.4} ms in a normal VM ({:.2}x)",
        s.wall_ms,
        n.wall_ms,
        s.wall_ms / n.wall_ms
    );
    Ok(())
}
