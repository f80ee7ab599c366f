//! On-disk record types and the line codec.
//!
//! Every line of a store file is either the versioned header
//! (`#locus-store v1`) or one flat JSON object. Three record kinds
//! exist:
//!
//! * `eval` — one evaluated point: canonical point key, variant digest,
//!   objective, a measurement summary, the search module that proposed
//!   it and the wall-clock the measurement took;
//! * `prune` — one point the static safety verifier refused before any
//!   evaluation (a data race or an illegal transformation), with the
//!   refusal reason; a warm session replays the refusal from disk
//!   instead of re-running the analysis;
//! * `session` — one finished tuning session: the region's structural
//!   profile, the best point, and the *direct* (search-free) Locus
//!   recipe it denotes, which `suggest_program` retrieves for similar
//!   regions.
//!
//! Objectives are persisted as exact `f64` bit patterns (hex) next to a
//! human-readable decimal: warm-started sessions must replay *bit
//! identical* values, or cross-session determinism of the search
//! trajectory would silently break. The codec is the workspace's one
//! flat-JSON line codec, [`locus_trace::json`], shared with the trace
//! log and the `locusd` wire protocol. Decoding is tolerant: unknown
//! keys are ignored and unknown kinds are skipped, so the format can
//! grow.

use std::fmt::Write as _;

use locus_search::Objective;
use locus_trace::json::{read_flat, FlatObject, FlatWriter};

/// Version tag written as the first line of every store file.
pub const HEADER: &str = "#locus-store v1";

/// Structural profile of a code region, the retrieval key of `session`
/// records. Mirrors the analysis-derived `RegionProfile` of the core
/// crate without depending on it (the core crate depends on this one).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionShape {
    /// Loop nest depth.
    pub depth: usize,
    /// Whether the nest is perfect.
    pub perfect: bool,
    /// Whether dependence analysis succeeded.
    pub deps_available: bool,
    /// Number of innermost loops.
    pub inner_loops: usize,
    /// Whether every innermost loop is provably vectorizable.
    pub vectorizable: bool,
}

impl RegionShape {
    /// Structural distance between two regions, used for
    /// nearest-neighbor recipe retrieval. Depth and dependence
    /// availability dominate — a recipe for a deep affine nest is
    /// useless on a flat non-affine one — while vectorizability is a
    /// tie-breaker.
    pub fn distance(&self, other: &RegionShape) -> u32 {
        (self.depth.abs_diff(other.depth) as u32) * 2
            + u32::from(self.perfect != other.perfect) * 2
            + u32::from(self.deps_available != other.deps_available) * 3
            + self.inner_loops.abs_diff(other.inner_loops) as u32
            + u32::from(self.vectorizable != other.vectorizable)
    }
}

/// One evaluated point.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalRecord {
    /// `Point::canonical_key` of the evaluated point.
    pub point_key: String,
    /// FNV-1a digest of the direct program the point denotes.
    pub variant: u64,
    /// The evaluation outcome (value = simulated milliseconds).
    pub objective: Objective,
    /// Simulated cycles of the measurement (0 for invalid/error).
    pub cycles: f64,
    /// Interpreted operations.
    pub ops: u64,
    /// Floating-point operations.
    pub flops: u64,
    /// Result checksum (semantic-equivalence witness).
    pub checksum: u64,
    /// Name of the search module that proposed the point.
    pub search: String,
    /// Wall-clock milliseconds the measurement took.
    pub wall_ms: f64,
}

/// One statically pruned point: the verifier refused it before any
/// evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PruneRecord {
    /// `Point::canonical_key` of the refused point.
    pub point_key: String,
    /// FNV-1a digest of the direct program the point denotes.
    pub variant: u64,
    /// Why the verifier refused (race report or legality verdict).
    pub reason: String,
    /// `"exact"` when the refusal was decided by the polyhedral
    /// dependence engine, `"conservative"` otherwise. Lines written
    /// before this field existed decode as `"conservative"`.
    pub provenance: String,
    /// Name of the search module that proposed the point.
    pub search: String,
}

/// One finished tuning session's summary: what region was tuned, what
/// recipe won.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionRecord {
    /// Region id the session tuned.
    pub region: String,
    /// Structural profile of the region at tuning time.
    pub shape: RegionShape,
    /// `Point::canonical_key` of the winning point.
    pub best_point: String,
    /// Objective of the winning point (simulated milliseconds).
    pub best_ms: f64,
    /// The direct (search-free) Locus program of the winning point.
    pub recipe: String,
    /// Name of the search module that found it.
    pub search: String,
}

/// A parsed store line.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// An `eval` line, with the group key it belongs to.
    Eval {
        /// Group key of the record.
        key: crate::StoreKey,
        /// The record itself.
        record: EvalRecord,
    },
    /// A `prune` line, with the group key it belongs to.
    Prune {
        /// Group key of the record.
        key: crate::StoreKey,
        /// The record itself.
        record: PruneRecord,
    },
    /// A `session` line, with the group key it belongs to.
    Session {
        /// Group key of the record.
        key: crate::StoreKey,
        /// The record itself.
        record: SessionRecord,
    },
}

// ---------------------------------------------------------------------
// Encoding and decoding, on the shared `locus_trace::json` codec
// ---------------------------------------------------------------------

fn hex(v: u64) -> String {
    format!("{v:016x}")
}

fn hex64(s: &str) -> Option<u64> {
    u64::from_str_radix(s, 16).ok()
}

fn key_fields(w: &mut FlatWriter, key: &crate::StoreKey) {
    let mut regions = String::new();
    for (id, hash) in &key.regions {
        let _ = write!(regions, "{id}:{hash:016x},");
    }
    w.str("regions", &regions)
        .str("machine", &hex(key.machine))
        .str("space", &hex(key.space));
}

/// Encodes an `eval` line (no trailing newline).
pub fn encode_eval(key: &crate::StoreKey, r: &EvalRecord) -> String {
    let mut w = FlatWriter::new();
    w.str("kind", "eval");
    key_fields(&mut w, key);
    let (tag, ms) = match r.objective {
        Objective::Value(v) => ("V", v),
        Objective::Invalid => ("I", 0.0),
        Objective::Error => ("E", 0.0),
    };
    w.str("point", &r.point_key)
        .str("variant", &hex(r.variant))
        .str("obj", tag)
        .f64("ms", ms)
        .f64("cycles", r.cycles)
        .raw("ops", r.ops)
        .raw("flops", r.flops)
        .str("checksum", &hex(r.checksum))
        .str("search", &r.search)
        .raw("wall_ms", format_args!("{:.6}", r.wall_ms));
    w.finish()
}

/// Encodes a `prune` line (no trailing newline).
pub fn encode_prune(key: &crate::StoreKey, r: &PruneRecord) -> String {
    let mut w = FlatWriter::new();
    w.str("kind", "prune");
    key_fields(&mut w, key);
    w.str("point", &r.point_key)
        .str("variant", &hex(r.variant))
        .str("reason", &r.reason)
        .str("provenance", &r.provenance)
        .str("search", &r.search);
    w.finish()
}

/// Encodes a `session` line (no trailing newline).
pub fn encode_session(key: &crate::StoreKey, r: &SessionRecord) -> String {
    let mut w = FlatWriter::new();
    w.str("kind", "session");
    key_fields(&mut w, key);
    w.str("region", &r.region)
        .raw("depth", r.shape.depth)
        .raw("perfect", r.shape.perfect)
        .raw("deps", r.shape.deps_available)
        .raw("inner", r.shape.inner_loops)
        .raw("vec", r.shape.vectorizable)
        .str("best_point", &r.best_point)
        .f64("best_ms", r.best_ms)
        .str("recipe", &r.recipe)
        .str("search", &r.search);
    w.finish()
}

fn parse_key(line: &FlatObject<'_>) -> Option<crate::StoreKey> {
    let mut regions = Vec::new();
    for entry in line.get("regions")?.split(',') {
        if entry.is_empty() {
            continue;
        }
        let (id, hash) = entry.rsplit_once(':')?;
        regions.push((id.to_string(), hex64(hash)?));
    }
    Some(crate::StoreKey::new(
        regions,
        hex64(line.get("machine")?)?,
        hex64(line.get("space")?)?,
    ))
}

/// Decodes one store line. Returns `None` for lines this version does
/// not understand (malformed, or a future record kind) — callers skip
/// them so old binaries tolerate newer files. Text after the closing
/// `}` is ignored.
pub fn decode(line: &str) -> Option<Record> {
    let line = read_flat(line).ok()?;
    let text = |key: &str| line.get(key).map(str::to_string);
    let bits = |key: &str| Some(f64::from_bits(hex64(line.get(key)?)?));
    let flag = |key: &str| Some(line.get(key)? == "true");
    let key = parse_key(&line)?;
    match line.get("kind")? {
        "eval" => {
            let objective = match line.get("obj")? {
                "V" => Objective::Value(bits("ms")?),
                "I" => Objective::Invalid,
                "E" => Objective::Error,
                _ => return None,
            };
            Some(Record::Eval {
                key,
                record: EvalRecord {
                    point_key: text("point")?,
                    variant: hex64(line.get("variant")?)?,
                    objective,
                    cycles: bits("cycles")?,
                    ops: line.get("ops")?.parse().ok()?,
                    flops: line.get("flops")?.parse().ok()?,
                    checksum: hex64(line.get("checksum")?)?,
                    search: text("search")?,
                    wall_ms: line.get("wall_ms")?.parse().ok()?,
                },
            })
        }
        "prune" => Some(Record::Prune {
            key,
            record: PruneRecord {
                point_key: text("point")?,
                variant: hex64(line.get("variant")?)?,
                reason: text("reason")?,
                provenance: text("provenance").unwrap_or_else(|| "conservative".into()),
                search: text("search")?,
            },
        }),
        "session" => Some(Record::Session {
            key,
            record: SessionRecord {
                region: text("region")?,
                shape: RegionShape {
                    depth: line.get("depth")?.parse().ok()?,
                    perfect: flag("perfect")?,
                    deps_available: flag("deps")?,
                    inner_loops: line.get("inner")?.parse().ok()?,
                    vectorizable: flag("vec")?,
                },
                best_point: text("best_point")?,
                best_ms: bits("best_ms")?,
                recipe: text("recipe")?,
                search: text("search")?,
            },
        }),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> crate::StoreKey {
        crate::StoreKey::new(vec![("matmul".into(), 0xabcd)], 0x1111, 0x2222)
    }

    #[test]
    fn eval_round_trips_bit_exactly() {
        let r = EvalRecord {
            point_key: "tileI=i32;or:omp=c1;".into(),
            variant: 0xdead_beef_cafe_f00d,
            objective: Objective::Value(0.1 + 0.2), // a value with ugly bits
            cycles: 1234.5678,
            ops: 99,
            flops: 42,
            checksum: 0x0123_4567_89ab_cdef,
            search: "bandit (opentuner-like)".into(),
            wall_ms: 0.25,
        };
        let line = encode_eval(&key(), &r);
        let Some(Record::Eval { key: k, record }) = decode(&line) else {
            panic!("decodes: {line}");
        };
        assert_eq!(k, key());
        assert_eq!(record, r);
        // Bit-exactness is the contract, not approximate equality.
        let (Objective::Value(a), Objective::Value(b)) = (record.objective, r.objective) else {
            panic!();
        };
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn invalid_and_error_outcomes_round_trip() {
        for objective in [Objective::Invalid, Objective::Error] {
            let r = EvalRecord {
                point_key: "x=i1;".into(),
                variant: 7,
                objective,
                cycles: 0.0,
                ops: 0,
                flops: 0,
                checksum: 0,
                search: "exhaustive".into(),
                wall_ms: 0.0,
            };
            let Some(Record::Eval { record, .. }) = decode(&encode_eval(&key(), &r)) else {
                panic!("decodes");
            };
            assert_eq!(record.objective, objective);
        }
    }

    #[test]
    fn prune_round_trips_with_reason() {
        let r = PruneRecord {
            point_key: "or:omp=c1;".into(),
            variant: 0x1234_5678_9abc_def0,
            reason: "data race: write C[i][j] / write C[i][j] carried at level 0 (direction *)"
                .into(),
            provenance: "exact".into(),
            search: "exhaustive".into(),
        };
        let line = encode_prune(&key(), &r);
        assert!(!line.contains('\n'), "one record per line: {line}");
        let Some(Record::Prune { key: k, record }) = decode(&line) else {
            panic!("decodes: {line}");
        };
        assert_eq!(k, key());
        assert_eq!(record, r);
    }

    #[test]
    fn prune_lines_without_provenance_decode_as_conservative() {
        let r = PruneRecord {
            point_key: "or:omp=c1;".into(),
            variant: 0x1,
            reason: "dependence".into(),
            provenance: "exact".into(),
            search: "exhaustive".into(),
        };
        let line = encode_prune(&key(), &r)
            .replace(",\"provenance\":\"exact\"", "")
            .replace("\"provenance\":\"exact\",", "");
        assert!(!line.contains("provenance"), "{line}");
        let Some(Record::Prune { record, .. }) = decode(&line) else {
            panic!("decodes: {line}");
        };
        assert_eq!(record.provenance, "conservative");
    }

    #[test]
    fn session_round_trips_with_multiline_recipe() {
        let r = SessionRecord {
            region: "matmul".into(),
            shape: RegionShape {
                depth: 3,
                perfect: true,
                deps_available: true,
                inner_loops: 1,
                vectorizable: false,
            },
            best_point: "tileI=i16;".into(),
            best_ms: 1.5,
            recipe: "CodeReg matmul {\n    RoseLocus.Interchange(order=[0, 2, 1]);\n}\n".into(),
            search: "bandit".into(),
        };
        let line = encode_session(&key(), &r);
        assert!(!line.contains('\n'), "one record per line: {line}");
        let Some(Record::Session { record, .. }) = decode(&line) else {
            panic!("decodes: {line}");
        };
        assert_eq!(record, r);
    }

    #[test]
    fn strings_with_quotes_and_backslashes_survive() {
        let r = SessionRecord {
            region: "r".into(),
            shape: RegionShape {
                depth: 1,
                perfect: false,
                deps_available: false,
                inner_loops: 1,
                vectorizable: false,
            },
            best_point: String::new(),
            best_ms: 0.0,
            recipe: "Pips.Tiling(loop=\"0\", factor=[8]);\\ tab:\there".into(),
            search: "s".into(),
        };
        let Some(Record::Session { record, .. }) = decode(&encode_session(&key(), &r)) else {
            panic!("decodes");
        };
        assert_eq!(record.recipe, r.recipe);
    }

    #[test]
    fn unknown_kinds_and_garbage_are_skipped() {
        assert!(decode("not json at all").is_none());
        assert!(decode("{\"kind\":\"eval\"}").is_none(), "missing fields");
        let mut line = encode_eval(
            &key(),
            &EvalRecord {
                point_key: "x=i1;".into(),
                variant: 1,
                objective: Objective::Value(1.0),
                cycles: 0.0,
                ops: 0,
                flops: 0,
                checksum: 0,
                search: "s".into(),
                wall_ms: 0.0,
            },
        );
        line = line.replace("\"kind\":\"eval\"", "\"kind\":\"v2-hologram\"");
        assert!(decode(&line).is_none(), "future kinds skip, not crash");
    }

    #[test]
    fn shape_distance_prefers_structurally_similar_regions() {
        let deep = RegionShape {
            depth: 3,
            perfect: true,
            deps_available: true,
            inner_loops: 1,
            vectorizable: true,
        };
        let same = deep;
        let shallow = RegionShape {
            depth: 1,
            perfect: true,
            deps_available: true,
            inner_loops: 1,
            vectorizable: true,
        };
        let nonaffine = RegionShape {
            depth: 3,
            perfect: true,
            deps_available: false,
            inner_loops: 1,
            vectorizable: false,
        };
        assert_eq!(deep.distance(&same), 0);
        assert!(deep.distance(&shallow) > 0);
        assert!(deep.distance(&nonaffine) > deep.distance(&same));
    }
}
