//! The NoviFlow hardware model.
//!
//! ESwitch and Lagopus are [`CompiledEngine::eswitch`] and
//! [`CompiledEngine::lagopus`]: a template policy plus a cost model. The
//! NoviFlow model is the same engine under TCAM templates with one
//! difference a policy cannot express: a hardware pipeline's throughput
//! is the line-rate slot regardless of depth, and its latency grows with
//! pipeline depth (the +2 µs/stage of Table 1). Control-plane updates
//! stall the datapath (Fig. 4, modeled in [`crate::churn`]).

use crate::compile::{CompileError, CompiledEngine, ProcessOut, TemplatePolicy};
use crate::cost::{CostParams, HwLatency};
use crate::Switch;
use mapro_core::{Packet, Pipeline};

/// NoviFlow-like hardware TCAM pipeline.
pub struct NoviflowSim {
    engine: CompiledEngine,
    latency: HwLatency,
}

impl NoviflowSim {
    /// Compile a pipeline onto TCAM stages.
    pub fn compile(p: &Pipeline) -> Result<NoviflowSim, CompileError> {
        Ok(NoviflowSim {
            engine: CompiledEngine::compile(p, TemplatePolicy::Tcam, CostParams::noviflow())?,
            latency: HwLatency::default(),
        })
    }

    /// Line rate in Mpps (the per-packet slot of the cost model).
    pub fn line_rate_mpps(&self) -> f64 {
        1000.0 / self.engine.params().per_packet_ns
    }
}

impl Switch for NoviflowSim {
    fn name(&self) -> &'static str {
        "noviflow"
    }

    fn process(&mut self, pkt: &Packet) -> ProcessOut {
        let mut out = self.engine.process(pkt);
        out.service_ns = self.engine.params().per_packet_ns;
        out.latency_ns =
            (self.latency.base_us + self.latency.per_stage_us * out.lookups as f64) * 1000.0;
        out
    }

    fn queue_factor(&self) -> f64 {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapro_classifier::TemplateKind;
    use mapro_core::{ActionSem, Catalog, Table, Value};

    /// Universal-vs-goto miniature (3 tenants, 2 backends each).
    fn universal() -> Pipeline {
        let mut c = Catalog::new();
        let src = c.field("ip_src", 32);
        let dst = c.field("ip_dst", 32);
        let port = c.field("tcp_dst", 16);
        let out = c.action("out", ActionSem::Output);
        let mut t = Table::new("t0", vec![src, dst, port], vec![out]);
        for tenant in 0..3u64 {
            for b in 0..2u64 {
                let pfx = Value::prefix(b << 31, 1, 32);
                t.row(
                    vec![pfx, Value::Int(tenant), Value::Int(80)],
                    vec![Value::sym(format!("vm{}", tenant * 2 + b))],
                );
            }
        }
        Pipeline::single(c, t)
    }

    fn goto_form() -> Pipeline {
        let p = universal();
        let dst = p.catalog.lookup("ip_dst").unwrap();
        let port = p.catalog.lookup("tcp_dst").unwrap();
        mapro_normalize::decompose(
            &p,
            "t0",
            &[dst],
            &[port],
            &mapro_normalize::DecomposeOpts {
                join: mapro_normalize::JoinKind::Goto,
                ..Default::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn eswitch_specializes_decomposed_pipeline() {
        let sim = CompiledEngine::eswitch(&goto_form()).unwrap();
        let kinds: Vec<_> = sim.templates().into_iter().map(|(_, k)| k).collect();
        assert_eq!(kinds[0], TemplateKind::Exact); // (ip_dst, tcp_dst) stage
        for k in &kinds[1..] {
            assert_eq!(*k, TemplateKind::Lpm); // per-tenant prefix stages
        }
        let uni = CompiledEngine::eswitch(&universal()).unwrap();
        assert_eq!(uni.templates()[0].1, TemplateKind::Linear);
    }

    #[test]
    fn eswitch_goto_form_is_faster() {
        let mut uni = CompiledEngine::eswitch(&universal()).unwrap();
        let mut dec = CompiledEngine::eswitch(&goto_form()).unwrap();
        let p = universal();
        let pkt = Packet::from_fields(&p.catalog, &[("ip_src", 5), ("ip_dst", 1), ("tcp_dst", 80)]);
        let a = uni.process(&pkt);
        let b = dec.process(&pkt);
        assert_eq!(a.output, b.output);
        assert!(
            b.service_ns < a.service_ns,
            "{} !< {}",
            b.service_ns,
            a.service_ns
        );
    }

    #[test]
    fn noviflow_line_rate_constant_latency_grows() {
        let mut uni = NoviflowSim::compile(&universal()).unwrap();
        let mut dec = NoviflowSim::compile(&goto_form()).unwrap();
        let p = universal();
        let pkt = Packet::from_fields(&p.catalog, &[("ip_src", 5), ("ip_dst", 1), ("tcp_dst", 80)]);
        let a = uni.process(&pkt);
        let b = dec.process(&pkt);
        assert_eq!(a.service_ns, b.service_ns); // line rate
        assert!(b.latency_ns > a.latency_ns); // deeper pipeline
        assert!((a.latency_ns - 6400.0).abs() < 1.0);
        assert!((b.latency_ns - 8400.0).abs() < 1.0);
    }

    #[test]
    fn lagopus_agnostic_to_representation() {
        let mut uni = CompiledEngine::lagopus(&universal()).unwrap();
        let mut dec = CompiledEngine::lagopus(&goto_form()).unwrap();
        let p = universal();
        let pkt = Packet::from_fields(&p.catalog, &[("ip_src", 5), ("ip_dst", 1), ("tcp_dst", 80)]);
        let a = uni.process(&pkt);
        let b = dec.process(&pkt);
        assert_eq!(a.output, b.output);
        // Fixed I/O dominates: within 10%.
        let ratio = a.service_ns / b.service_ns;
        assert!((0.9..1.1).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn sims_agree_on_verdicts() {
        let pu = universal();
        let pg = goto_form();
        let mut sims: Vec<Box<dyn Switch>> = vec![
            Box::new(CompiledEngine::eswitch(&pu).unwrap()),
            Box::new(CompiledEngine::lagopus(&pu).unwrap()),
            Box::new(NoviflowSim::compile(&pu).unwrap()),
            Box::new(CompiledEngine::eswitch(&pg).unwrap()),
        ];
        for (s, d, pt) in [
            (5u64, 1u64, 80u64),
            (1 << 31, 2, 80),
            (7, 9, 80),
            (7, 1, 22),
        ] {
            let pkt = Packet::from_fields(
                &pu.catalog,
                &[("ip_src", s), ("ip_dst", d), ("tcp_dst", pt)],
            );
            let want = pu.run(&pkt).unwrap();
            for sim in sims.iter_mut() {
                let got = sim.process(&pkt);
                assert_eq!(got.output.as_deref(), want.output.as_deref());
                assert_eq!(got.dropped, want.dropped);
            }
        }
    }
}
