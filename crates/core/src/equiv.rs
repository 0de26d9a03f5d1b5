//! Semantic-equivalence checking between pipeline representations.
//!
//! §4 of the paper proves (Theorem 1) that decomposition along a functional
//! dependency preserves semantics. This module provides the *mechanical*
//! counterpart used throughout the test suite and by the transformation
//! engine's verification mode: evaluate both pipelines over the derived
//! finite domain (see [`crate::domain`]) and compare observable verdicts.

use crate::attr::AttrId;
use crate::domain::{Domain, DomainError};
use crate::pipeline::{EvalError, Packet, Pipeline, Verdict};
use mapro_par::{CancelToken, Pool};

/// How an equivalence verdict was reached.
///
/// Only [`CheckMethod::Sampled`] verdicts are incomplete; the other two are
/// proofs. Surfaced in CLI/repro output so a sampled "equivalent" is never
/// mistaken for one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckMethod {
    /// Every packet of the derived Cartesian domain was evaluated.
    Exhaustive,
    /// The domain was too large; a deterministic sample was evaluated.
    Sampled,
    /// Behavior covers were compared symbolically (every packet is covered
    /// by exactly one ternary atom, so this is a complete check).
    Symbolic,
}

impl std::fmt::Display for CheckMethod {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckMethod::Exhaustive => write!(f, "exhaustive"),
            CheckMethod::Sampled => write!(f, "sampled"),
            CheckMethod::Symbolic => write!(f, "symbolic"),
        }
    }
}

impl CheckMethod {
    /// What [`EquivOutcome::Equivalent::packets_checked`] counts under this
    /// method: `"atoms"` for a symbolic proof, `"packets"` otherwise.
    pub fn work_unit(self) -> &'static str {
        match self {
            CheckMethod::Symbolic => "atoms",
            CheckMethod::Exhaustive | CheckMethod::Sampled => "packets",
        }
    }
}

/// Outcome of an equivalence check.
#[derive(Debug, Clone, PartialEq)]
pub enum EquivOutcome {
    /// No distinguishing packet exists in the checked set.
    Equivalent {
        /// How many packets were evaluated. For [`CheckMethod::Symbolic`] it
        /// is the symbolic work instead, in "atoms" (see
        /// [`CheckMethod::work_unit`]): the non-empty atom intersections
        /// compared by the cube backend, the shared diagram nodes of the
        /// two roots under the DD backend.
        packets_checked: usize,
        /// True if the full Cartesian product was enumerated (complete
        /// check); false if the product was sampled.
        exhaustive: bool,
        /// How the verdict was decided.
        method: CheckMethod,
    },
    /// A packet on which the two pipelines disagree.
    Counterexample(Box<Counterexample>),
}

impl EquivOutcome {
    /// True for [`EquivOutcome::Equivalent`].
    pub fn is_equivalent(&self) -> bool {
        matches!(self, EquivOutcome::Equivalent { .. })
    }
}

/// A distinguishing packet and the two verdicts.
#[derive(Debug, Clone, PartialEq)]
pub struct Counterexample {
    /// The input packet.
    pub packet: Packet,
    /// Human-readable field assignment of the packet.
    pub fields: Vec<(String, u64)>,
    /// Verdict of the first pipeline.
    pub left: Verdict,
    /// Verdict of the second pipeline.
    pub right: Verdict,
}

/// Errors during an equivalence check.
#[derive(Debug, Clone, PartialEq)]
pub enum EquivError {
    /// A pipeline contains predicates outside the decidable fragment.
    Domain(DomainError),
    /// A pipeline failed to evaluate (goto cycle, bad action parameters).
    Eval(EvalError),
    /// The two pipelines disagree on what a header field id means, so a
    /// shared packet cannot be constructed (comparing unrelated programs).
    IncompatibleCatalogs {
        /// The disagreeing attribute id.
        attr: AttrId,
        /// Its name in the left catalog (if present).
        left: Option<String>,
        /// Its name in the right catalog (if present).
        right: Option<String>,
    },
    /// [`EquivMode::Symbolic`] was requested but the program contains a
    /// construct the symbolic compiler cannot express (reachable goto
    /// cycle, unknown goto target, malformed action parameter, or an
    /// exhausted atom/partition budget). Under [`EquivMode::Auto`] these
    /// cases silently fall back to the enumerative engine instead.
    SymbolicUnsupported(String),
}

impl From<DomainError> for EquivError {
    fn from(e: DomainError) -> Self {
        EquivError::Domain(e)
    }
}

impl From<EvalError> for EquivError {
    fn from(e: EvalError) -> Self {
        EquivError::Eval(e)
    }
}

impl std::fmt::Display for EquivError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EquivError::Domain(e) => write!(f, "domain derivation failed: {e}"),
            EquivError::Eval(e) => write!(f, "evaluation failed: {e}"),
            EquivError::IncompatibleCatalogs { attr, left, right } => write!(
                f,
                "programs are not comparable: field {attr} is {left:?} on the left but {right:?} on the right"
            ),
            EquivError::SymbolicUnsupported(why) => {
                write!(f, "symbolic equivalence unsupported: {why}")
            }
        }
    }
}

impl std::error::Error for EquivError {}

/// Which engine decides an equivalence query.
///
/// This crate only implements the enumerative engine; the symbolic one
/// lives in `mapro-sym`, whose `check_equivalent` front door dispatches on
/// this mode (and is what the umbrella `mapro` prelude re-exports).
/// Calling [`check_equivalent`] here directly treats `Auto` as the
/// enumerative fallback and rejects an explicit `Symbolic` request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EquivMode {
    /// Prefer the symbolic engine; fall back to enumeration for constructs
    /// the cube compiler cannot express.
    #[default]
    Auto,
    /// Symbolic only: unsupported constructs are an error
    /// ([`EquivError::SymbolicUnsupported`]), never silently enumerated.
    Symbolic,
    /// Enumerative only (the cross-check oracle): exhaustive up to
    /// [`EquivConfig::max_exhaustive`], sampled beyond it.
    Enumerate,
}

/// Configuration for [`check_equivalent`].
#[derive(Debug, Clone)]
pub struct EquivConfig {
    /// Enumerate the full product only if it has at most this many packets;
    /// otherwise fall back to deterministic sampling.
    pub max_exhaustive: u128,
    /// Sample size when the product is too large.
    pub samples: usize,
    /// Seed for the sampling fallback.
    pub seed: u64,
    /// Engine selection (see [`EquivMode`]).
    pub mode: EquivMode,
}

impl Default for EquivConfig {
    fn default() -> Self {
        EquivConfig {
            max_exhaustive: 2_000_000,
            samples: 200_000,
            seed: 0x6d61_7072_6f31_3919, // "mapro19" tag — any fixed value works
            mode: EquivMode::Auto,
        }
    }
}

/// A chunk scan's terminating event: the first counterexample or the
/// first evaluation error in that chunk's index range. Combined across
/// chunks by lowest-chunk-wins, which reproduces serial domain order.
enum ChunkEvent {
    Cx(Box<Counterexample>),
    Fail(EquivError),
}

/// How many product indices one pool task scans. Fixed — never derived
/// from the thread count — so the chunk grid (and therefore which packet
/// each task sees) is identical at any pool size.
const EQUIV_CHUNK: usize = 4096;

/// How often a chunk scan polls for supersession/cancellation.
const POLL_EVERY: usize = 512;

/// Check whether two pipelines are observationally equivalent on all packets
/// of their joint derived domain.
///
/// Completeness holds when the check is exhaustive (see
/// [`EquivOutcome::Equivalent::exhaustive`]) and both pipelines draw match
/// predicates from the interval-shaped fragment.
///
/// The scan runs on the global [`Pool`] (sized by `--threads` /
/// `MAPRO_THREADS`, defaulting to all cores): the domain product is split
/// into fixed index ranges, ranges are checked in parallel with
/// cancel-on-counterexample, and the reported counterexample is always the
/// **first in domain enumeration order** — output is byte-identical at any
/// thread count.
pub fn check_equivalent(
    left: &Pipeline,
    right: &Pipeline,
    cfg: &EquivConfig,
) -> Result<EquivOutcome, EquivError> {
    if cfg.mode == EquivMode::Symbolic {
        return Err(EquivError::SymbolicUnsupported(
            "the enumerative engine cannot honor EquivMode::Symbolic; \
             use the mode-dispatching front door in mapro-sym"
                .to_owned(),
        ));
    }
    let domain = Domain::from_pipelines(&[left, right])?;
    // The packets we construct assign values by attribute id; both programs
    // must agree on what each participating field id denotes.
    for (attr, _) in &domain.fields {
        let l = (attr.index() < left.catalog.len()).then(|| left.catalog.attr(*attr));
        let r = (attr.index() < right.catalog.len()).then(|| right.catalog.attr(*attr));
        let same = matches!((l, r), (Some(a), Some(b)) if a.name == b.name && a.width == b.width);
        if !same {
            return Err(EquivError::IncompatibleCatalogs {
                attr: *attr,
                left: l.map(|a| a.name.clone()),
                right: r.map(|a| a.name.clone()),
            });
        }
    }
    let proto_l = Packet::zero(&left.catalog);
    let li = left.name_index();
    let ri = right.name_index();

    let check_one = |pkt: &Packet| -> Result<Option<Counterexample>, EquivError> {
        // The two catalogs agree on Field attributes by construction of the
        // transformations (fields are never renumbered); run the same packet
        // through both.
        let vl = left.run_indexed(pkt, &li)?;
        let vr = right.run_indexed(pkt, &ri)?;
        if vl.observable() != vr.observable() {
            let fields = domain
                .fields
                .iter()
                .map(|(a, _)| (left.catalog.name(*a).to_owned(), pkt.get(*a)))
                .collect();
            return Ok(Some(Counterexample {
                packet: pkt.clone(),
                fields,
                left: vl,
                right: vr,
            }));
        }
        Ok(None)
    };

    mapro_obs::counter!("equiv.checks").inc();
    let _sp = mapro_obs::trace::span("enumerate");
    let pool = Pool::current();
    let size = domain.product_size();
    if size <= cfg.max_exhaustive && size <= usize::MAX as u128 {
        let n = size as usize;
        mapro_obs::counter!("equiv.packets").add(n as u64);
        let chunks = mapro_par::chunk_ranges(n, EQUIV_CHUNK);
        let hit = pool.find_first(chunks.len(), &CancelToken::new(), |ci, ctl| {
            let _t = mapro_obs::time!("equiv.chunk_ns");
            let _c = mapro_obs::trace::span_kv("chunk", vec![("chunk", ci.into())]);
            let range = &chunks[ci];
            let mut scanned = 0usize;
            for pkt in domain.packets_range(&proto_l, range.start as u128, range.len()) {
                scanned += 1;
                if scanned.is_multiple_of(POLL_EVERY) && ctl.superseded(ci) {
                    return None; // a lower-indexed chunk already hit
                }
                match check_one(&pkt) {
                    Ok(None) => {}
                    Ok(Some(cx)) => return Some(ChunkEvent::Cx(Box::new(cx))),
                    Err(e) => return Some(ChunkEvent::Fail(e)),
                }
            }
            None
        });
        match hit {
            None => Ok(EquivOutcome::Equivalent {
                packets_checked: n,
                exhaustive: true,
                method: CheckMethod::Exhaustive,
            }),
            Some(ChunkEvent::Cx(cx)) => Ok(EquivOutcome::Counterexample(cx)),
            Some(ChunkEvent::Fail(e)) => Err(e),
        }
    } else {
        // Deduplicate the drawn packets before checking: the splitmix64
        // stream may repeat representatives (it *will* on small per-field
        // domains), and duplicates both waste checking work and overstate
        // `packets_checked`. First-occurrence order is kept so the
        // reported counterexample matches the draw order at any thread
        // count.
        let pkts = domain.sample(&proto_l, cfg.samples, cfg.seed);
        let mut seen = std::collections::HashSet::with_capacity(pkts.len());
        let pkts: Vec<Packet> = pkts
            .into_iter()
            .filter(|p| {
                let key: Vec<u64> = domain.fields.iter().map(|(a, _)| p.get(*a)).collect();
                seen.insert(key)
            })
            .collect();
        mapro_obs::counter!("equiv.packets").add(pkts.len() as u64);
        let chunks = mapro_par::chunk_ranges(pkts.len(), EQUIV_CHUNK);
        let hit = pool.find_first(chunks.len(), &CancelToken::new(), |ci, ctl| {
            let _t = mapro_obs::time!("equiv.chunk_ns");
            let _c = mapro_obs::trace::span_kv("chunk", vec![("chunk", ci.into())]);
            for (off, pkt) in pkts[chunks[ci].clone()].iter().enumerate() {
                if off % POLL_EVERY == POLL_EVERY - 1 && ctl.superseded(ci) {
                    return None;
                }
                match check_one(pkt) {
                    Ok(None) => {}
                    Ok(Some(cx)) => return Some(ChunkEvent::Cx(Box::new(cx))),
                    Err(e) => return Some(ChunkEvent::Fail(e)),
                }
            }
            None
        });
        match hit {
            None => Ok(EquivOutcome::Equivalent {
                packets_checked: pkts.len(),
                exhaustive: false,
                method: CheckMethod::Sampled,
            }),
            Some(ChunkEvent::Cx(cx)) => Ok(EquivOutcome::Counterexample(cx)),
            Some(ChunkEvent::Fail(e)) => Err(e),
        }
    }
}

/// Convenience wrapper asserting equivalence with default configuration.
///
/// # Panics
/// Panics with a readable counterexample if the pipelines differ, or on
/// evaluation errors. Intended for tests and transformation verification.
pub fn assert_equivalent(left: &Pipeline, right: &Pipeline) {
    match check_equivalent(left, right, &EquivConfig::default()) {
        Ok(EquivOutcome::Equivalent { .. }) => {}
        Ok(EquivOutcome::Counterexample(cx)) => {
            panic!(
                "pipelines differ on packet {:?}:\n left: {:?}\n right: {:?}",
                cx.fields, cx.left, cx.right
            );
        }
        Err(e) => panic!("equivalence check failed: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::{ActionSem, Catalog};
    use crate::table::Table;
    use crate::value::Value;

    fn out_table(rows: &[(u64, &str)]) -> Pipeline {
        let mut c = Catalog::new();
        let f = c.field("f", 8);
        let out = c.action("out", ActionSem::Output);
        let mut t = Table::new("t", vec![f], vec![out]);
        for &(v, port) in rows {
            t.row(vec![Value::Int(v)], vec![Value::sym(port)]);
        }
        Pipeline::single(c, t)
    }

    #[test]
    fn identical_pipelines_equivalent() {
        let a = out_table(&[(1, "x"), (2, "y")]);
        let b = out_table(&[(1, "x"), (2, "y")]);
        let r = check_equivalent(&a, &b, &EquivConfig::default()).unwrap();
        assert!(r.is_equivalent());
        if let EquivOutcome::Equivalent {
            packets_checked,
            exhaustive,
            method,
        } = r
        {
            assert!(exhaustive);
            assert_eq!(method, CheckMethod::Exhaustive);
            assert_eq!(packets_checked, 4); // boundary values {0, 1, 2, 3}
        }
    }

    #[test]
    fn entry_order_irrelevant_when_disjoint() {
        let a = out_table(&[(1, "x"), (2, "y")]);
        let b = out_table(&[(2, "y"), (1, "x")]);
        assert!(check_equivalent(&a, &b, &EquivConfig::default())
            .unwrap()
            .is_equivalent());
    }

    #[test]
    fn differing_output_found() {
        let a = out_table(&[(1, "x")]);
        let b = out_table(&[(1, "y")]);
        let r = check_equivalent(&a, &b, &EquivConfig::default()).unwrap();
        match r {
            EquivOutcome::Counterexample(cx) => {
                assert_eq!(cx.fields, vec![("f".to_owned(), 1)]);
                assert_eq!(cx.left.output.as_deref(), Some("x"));
                assert_eq!(cx.right.output.as_deref(), Some("y"));
            }
            _ => panic!("expected counterexample"),
        }
    }

    #[test]
    fn missing_entry_found() {
        let a = out_table(&[(1, "x"), (2, "y")]);
        let b = out_table(&[(1, "x")]);
        let r = check_equivalent(&a, &b, &EquivConfig::default()).unwrap();
        assert!(!r.is_equivalent());
    }

    #[test]
    #[should_panic(expected = "pipelines differ")]
    fn assert_equivalent_panics_with_counterexample() {
        let a = out_table(&[(1, "x")]);
        let b = out_table(&[(1, "y")]);
        assert_equivalent(&a, &b);
    }

    #[test]
    fn incompatible_catalogs_rejected() {
        let a = out_table(&[(1, "x")]);
        let mut c = Catalog::new();
        c.field("completely_different", 16);
        let out = c.action("out", ActionSem::Output);
        let mut t = Table::new(
            "t",
            vec![c.lookup("completely_different").unwrap()],
            vec![out],
        );
        t.row(vec![Value::Int(1)], vec![Value::sym("x")]);
        let b = Pipeline::single(c, t);
        assert!(matches!(
            check_equivalent(&a, &b, &EquivConfig::default()),
            Err(EquivError::IncompatibleCatalogs { .. })
        ));
    }

    #[test]
    fn sampling_mode_triggers_on_huge_products() {
        let a = out_table(&[(1, "x")]);
        let b = out_table(&[(1, "x")]);
        let cfg = EquivConfig {
            max_exhaustive: 0,
            samples: 50,
            seed: 7,
            ..EquivConfig::default()
        };
        match check_equivalent(&a, &b, &cfg).unwrap() {
            EquivOutcome::Equivalent {
                exhaustive,
                packets_checked,
                method,
            } => {
                assert!(!exhaustive);
                assert_eq!(method, CheckMethod::Sampled);
                // The derived domain has 3 representatives ({0,1,2}); 50
                // draws collapse to the distinct packets actually checked.
                assert_eq!(packets_checked, 3);
            }
            _ => panic!(),
        }
    }

    /// The enumerative engine cannot satisfy an explicit symbolic-only
    /// request; it must refuse rather than silently enumerate.
    #[test]
    fn explicit_symbolic_mode_rejected_by_enumerative_engine() {
        let a = out_table(&[(1, "x")]);
        let b = out_table(&[(1, "x")]);
        let cfg = EquivConfig {
            mode: EquivMode::Symbolic,
            ..EquivConfig::default()
        };
        assert!(matches!(
            check_equivalent(&a, &b, &cfg),
            Err(EquivError::SymbolicUnsupported(_))
        ));
    }

    /// Regression: sampled draws are deduplicated before checking, so
    /// `packets_checked` reports distinct packets, never the raw draw
    /// count (which used to overstate coverage on small domains).
    #[test]
    fn sampling_deduplicates_drawn_packets() {
        let a = out_table(&[(1, "x"), (2, "y")]);
        let b = out_table(&[(1, "x"), (2, "y")]);
        // Domain of f: {0, 1, 2, 3} — 4 distinct representatives.
        let cfg = EquivConfig {
            max_exhaustive: 0,
            samples: 10_000,
            seed: 99,
            ..EquivConfig::default()
        };
        match check_equivalent(&a, &b, &cfg).unwrap() {
            EquivOutcome::Equivalent {
                exhaustive,
                packets_checked,
                ..
            } => {
                assert!(!exhaustive);
                assert!(
                    packets_checked <= 4,
                    "only distinct packets count (got {packets_checked})"
                );
                assert_eq!(packets_checked, 4, "10k draws surely cover all 4");
            }
            _ => panic!("expected equivalence"),
        }
        // Dedup must not mask a counterexample reachable by sampling.
        let c = out_table(&[(1, "x"), (2, "z")]);
        assert!(!check_equivalent(&a, &c, &cfg).unwrap().is_equivalent());
    }
}
