//! # mapro-switch — the simulated testbed
//!
//! §5 of the paper measures the GWLB pipeline on OVS, ESwitch, Lagopus and
//! a NoviFlow 2128. This crate is the substitute testbed (see DESIGN.md
//! §2 for the substitution argument):
//!
//! * [`compile`] — [`CompiledEngine`], the one executor every model runs
//!   on: a switch model is a [`TemplatePolicy`] (which classifier template
//!   each table compiles to) plus [`CostParams`]. ESwitch is
//!   [`CompiledEngine::eswitch`] (template specialization), Lagopus is
//!   [`CompiledEngine::lagopus`] (uniform TSS).
//! * [`sims`] — [`NoviflowSim`]: the engine under TCAM templates plus
//!   line-rate service and per-stage hardware latency.
//! * [`ovs`] — [`OvsSim`]: slow path + megaflow cache (OVS's explicit
//!   denormalization).
//! * [`megaflow`] — [`CachedEngine`]: the compiled engine fronted by a
//!   cube-keyed megaflow cache.
//! * [`harness`] — trace replay producing Table-1-style Mpps / latency
//!   quartiles, modeled (deterministic) and wall-clock modes.
//! * [`churn`] — the Fig. 4 control-plane stall model (analytic and
//!   discrete-event timeline).
//! * [`live`] — a datapath accepting control-plane flow-mods at runtime.
//! * [`cost`] — the calibrated cost constants, documented in one place.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod churn;
pub mod compile;
pub mod cost;
pub mod harness;
pub mod live;
pub mod megaflow;
pub mod ovs;
pub mod sims;

pub use churn::{
    churn_point, churn_sweep, queue_timeline, simulate_churn_timeline, ChurnPoint, ChurnSpec,
    QueueConfig, QueueReport,
};
pub use compile::{CompileError, CompiledEngine, ProcessOut, TemplatePolicy};
pub use cost::{ControlStall, CostParams, HwLatency};
pub use harness::{
    replay_digest, run_modeled, run_modeled_parallel, run_wallclock, run_with_updates,
    ClosedLoopReport, RunReport,
};
pub use live::{LiveError, LiveSwitch, UpdateReceipt};
pub use megaflow::{CacheUpdateError, CachedEngine, MegaflowStats};
pub use ovs::OvsSim;
pub use sims::NoviflowSim;

use mapro_core::Packet;

/// A switch model under test.
pub trait Switch {
    /// Short identifier (`eswitch`, `ovs`, …).
    fn name(&self) -> &'static str;
    /// Process one packet.
    fn process(&mut self, pkt: &Packet) -> ProcessOut;
    /// Process a batch of packets into `out` (cleared first). The default
    /// forwards to [`Switch::process`]; the harness replays traces in
    /// [`compile::BATCH`]-packet chunks through this entry point, so one
    /// virtual call is paid per chunk instead of per packet and compiled
    /// engines keep their dispatch loop hot.
    fn process_batch(&mut self, pkts: &[&Packet], out: &mut Vec<ProcessOut>) {
        out.clear();
        out.reserve(pkts.len());
        for pkt in pkts {
            let r = self.process(pkt);
            out.push(r);
        }
    }
    /// Reporting scale from service time to measured latency (testbed
    /// queueing/batching; 1.0 for hardware).
    fn queue_factor(&self) -> f64;
}
