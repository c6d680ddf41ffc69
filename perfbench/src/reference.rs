//! Output references: every operation's result is reduced to a 64-bit
//! FNV-1a digest over its exact bits and compared against the digest
//! recorded for the same input in `references.txt`.
//!
//! The inputs each workload can draw are a finite pool (the seed picks
//! which pool members run and in what order), so one recording covers
//! every seed. Re-record with `--record` — only when a change is meant
//! to alter flow results.

use std::collections::BTreeMap;

/// The recorded references, compiled in so the check does not depend on
/// the working directory.
const RECORDED: &str = include_str!("../references.txt");

/// Incremental FNV-1a (64-bit) over typed fields.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(mut self, bytes: &[u8]) -> Digest {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    /// Folds in a float's exact bit pattern.
    pub fn f64(self, value: f64) -> Digest {
        self.bytes(&value.to_bits().to_le_bytes())
    }

    pub fn str(self, text: &str) -> Digest {
        self.bytes(&(text.len() as u64).to_le_bytes())
            .bytes(text.as_bytes())
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Workload → input key → digest.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct References {
    table: BTreeMap<(String, String), String>,
}

/// Why an output failed its check.
#[derive(Debug, Clone, PartialEq)]
pub enum Mismatch {
    /// No reference was recorded for this input.
    Unrecorded { workload: String, key: String },
    /// The digest differs from the recorded one.
    Differs {
        workload: String,
        key: String,
        expected: String,
        got: String,
    },
}

impl std::fmt::Display for Mismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Mismatch::Unrecorded { workload, key } => {
                write!(f, "{workload} {key}: no recorded reference")
            }
            Mismatch::Differs {
                workload,
                key,
                expected,
                got,
            } => write!(f, "{workload} {key}: digest {got}, reference {expected}"),
        }
    }
}

impl References {
    /// The references compiled into this binary.
    pub fn recorded() -> References {
        References::parse(RECORDED)
    }

    /// Parses `workload key digest` lines; `#` starts a comment.
    pub fn parse(text: &str) -> References {
        let mut table = BTreeMap::new();
        for line in text.lines() {
            let line = line.split('#').next().unwrap_or("").trim();
            let mut fields = line.split_whitespace();
            if let (Some(w), Some(k), Some(d)) = (fields.next(), fields.next(), fields.next()) {
                table.insert((w.to_string(), k.to_string()), d.to_string());
            }
        }
        References { table }
    }

    /// Checks one output digest against its reference.
    pub fn check(&self, workload: &str, key: &str, digest: Digest) -> Result<(), Mismatch> {
        let got = digest.hex();
        match self.table.get(&(workload.to_string(), key.to_string())) {
            None => Err(Mismatch::Unrecorded {
                workload: workload.to_string(),
                key: key.to_string(),
            }),
            Some(expected) if *expected == got => Ok(()),
            Some(expected) => Err(Mismatch::Differs {
                workload: workload.to_string(),
                key: key.to_string(),
                expected: expected.clone(),
                got,
            }),
        }
    }
}

/// One recorded reference line.
pub fn line(workload: &str, key: &str, digest: Digest) -> String {
    format!("{workload} {key} {}", digest.hex())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn output(wns: f64, tns: f64, ppac: &str) -> Digest {
        Digest::default().f64(wns).f64(tns).str(ppac)
    }

    #[test]
    fn checker_rejects_a_one_bit_perturbed_output() {
        let wns = -0.0123;
        let refs = References::parse(&format!(
            "# comment\n{}\n",
            line(
                "flow_scale",
                "netlist_seed=1",
                output(wns, -1.5, "{\"ppc\":1}")
            )
        ));
        assert_eq!(
            refs.check(
                "flow_scale",
                "netlist_seed=1",
                output(wns, -1.5, "{\"ppc\":1}")
            ),
            Ok(())
        );
        // Flip the lowest mantissa bit of WNS.
        let flipped = f64::from_bits(wns.to_bits() ^ 1);
        assert!(matches!(
            refs.check(
                "flow_scale",
                "netlist_seed=1",
                output(flipped, -1.5, "{\"ppc\":1}")
            ),
            Err(Mismatch::Differs { .. })
        ));
        // Flip one bit of one byte of the rendered report.
        assert!(refs
            .check(
                "flow_scale",
                "netlist_seed=1",
                output(wns, -1.5, "{\"ppc\":0}")
            )
            .is_err());
        assert!(matches!(
            refs.check(
                "flow_scale",
                "netlist_seed=2",
                output(wns, -1.5, "{\"ppc\":1}")
            ),
            Err(Mismatch::Unrecorded { .. })
        ));
    }

    #[test]
    fn recorded_references_parse() {
        let refs = References::recorded();
        assert!(!refs.table.is_empty(), "references.txt is empty");
        assert!(refs.table.values().all(|d| d.len() == 16));
    }
}
