//! Helpers shared by the integration suites.

use acoi::MaintenanceReport;
use dlsearch::{Engine, MaintenanceJob, Result};

/// Drives one maintenance job through the whole protocol on an engine
/// the caller holds exclusively: run, then commit — or abort, handing
/// back the run's error. The reference the online suites compare the
/// concurrent path against.
pub fn run_to_completion(engine: &mut Engine, mut job: MaintenanceJob) -> Result<MaintenanceReport> {
    match job.run() {
        Ok(()) => engine.commit_maintenance(job),
        Err(e) => {
            engine.abort_maintenance(job)?;
            Err(e)
        }
    }
}
