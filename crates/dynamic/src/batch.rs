//! Validated edge-mutation logs.
//!
//! An [`UpdateBatch`] is the unit of incremental maintenance: one ordered
//! list of [`EdgeEdit`]s that is applied atomically (all edits validate
//! against the sequentially edited graph or none apply) and advances the
//! index's update epoch by one. Structural validation — finite, strictly
//! positive weights — happens at construction; graph-dependent validation
//! (unknown nodes, absent edges, duplicate inserts) happens once, in
//! [`CsrGraph::apply_edits`](kdash_graph::CsrGraph::apply_edits), which
//! [`DynamicIndex::apply`](crate::DynamicIndex::apply) calls on the
//! current graph.

use crate::{KdashError, Result};
use kdash_graph::{EdgeEdit, GraphError, NodeId};

/// An ordered, structurally validated log of edge mutations.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateBatch {
    edits: Vec<EdgeEdit>,
}

impl UpdateBatch {
    /// Wraps an edit list, validating every carried weight (finite and
    /// strictly positive — the same rule graph construction enforces).
    pub fn new(edits: Vec<EdgeEdit>) -> Result<UpdateBatch> {
        for e in &edits {
            if let Some(w) = e.weight() {
                if !(w.is_finite() && w > 0.0) {
                    return Err(KdashError::Graph(GraphError::InvalidWeight {
                        src: e.src(),
                        dst: e.dst(),
                        weight: w,
                    }));
                }
            }
        }
        Ok(UpdateBatch { edits })
    }

    /// The edits, in application order.
    pub fn edits(&self) -> &[EdgeEdit] {
        &self.edits
    }

    /// Number of edits.
    pub fn len(&self) -> usize {
        self.edits.len()
    }

    /// True when the batch carries no edits.
    pub fn is_empty(&self) -> bool {
        self.edits.is_empty()
    }

    /// Parses an edit stream into batches. One edit per line:
    ///
    /// ```text
    /// + src dst weight    # insert
    /// - src dst           # delete
    /// = src dst weight    # reweight
    /// ```
    ///
    /// `#` starts a comment (whole-line or trailing; comment-only lines
    /// are skipped); **blank** lines separate batches, so a file is a
    /// sequence of atomically applied batches. Parse failures carry the
    /// 1-based line number.
    pub fn parse_stream(text: &str) -> Result<Vec<UpdateBatch>> {
        let mut batches = Vec::new();
        let mut current: Vec<EdgeEdit> = Vec::new();
        for (lineno, raw) in text.lines().enumerate() {
            if raw.trim().is_empty() {
                // Only a genuinely blank line closes the open batch.
                if !current.is_empty() {
                    batches.push(UpdateBatch::new(std::mem::take(&mut current))?);
                }
                continue;
            }
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue; // comment-only line: no batch boundary
            }
            current.push(parse_edit(line, lineno + 1)?);
        }
        if !current.is_empty() {
            batches.push(UpdateBatch::new(current)?);
        }
        Ok(batches)
    }
}

fn parse_edit(line: &str, lineno: usize) -> Result<EdgeEdit> {
    let parse_err = |message: String| {
        KdashError::Graph(GraphError::Parse { line: lineno, message })
    };
    let mut tokens = line.split_whitespace();
    let op = tokens.next().ok_or_else(|| parse_err("empty edit line".into()))?;
    let mut node = |what: &str| -> Result<NodeId> {
        tokens
            .next()
            .ok_or_else(|| parse_err(format!("missing {what}")))?
            .parse()
            .map_err(|_| parse_err(format!("invalid {what}")))
    };
    let (src, dst) = (node("source node")?, node("target node")?);
    let edit = match op {
        "+" | "=" => {
            let weight: f64 = tokens
                .next()
                .ok_or_else(|| parse_err("missing weight".into()))?
                .parse()
                .map_err(|_| parse_err("invalid weight".into()))?;
            if op == "+" {
                EdgeEdit::Insert { src, dst, weight }
            } else {
                EdgeEdit::Reweight { src, dst, weight }
            }
        }
        "-" => EdgeEdit::Delete { src, dst },
        other => return Err(parse_err(format!("unknown edit op '{other}' (expected + - =)"))),
    };
    if let Some(extra) = tokens.next() {
        return Err(parse_err(format!("unexpected trailing token '{extra}'")));
    }
    Ok(edit)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates_weights() {
        assert!(UpdateBatch::new(vec![EdgeEdit::Insert { src: 0, dst: 1, weight: 1.0 }]).is_ok());
        for bad in [0.0, -2.0, f64::NAN, f64::INFINITY] {
            let err = UpdateBatch::new(vec![EdgeEdit::Reweight { src: 0, dst: 1, weight: bad }]);
            assert!(
                matches!(err, Err(KdashError::Graph(GraphError::InvalidWeight { .. }))),
                "weight {bad} must be rejected"
            );
        }
        // Deletes carry no weight to validate.
        assert!(UpdateBatch::new(vec![EdgeEdit::Delete { src: 0, dst: 1 }]).is_ok());
    }


    #[test]
    fn parse_stream_splits_batches_and_strips_comments() {
        let text = "\
# header comment
+ 0 1 2.5
# a comment between edits does NOT split the batch
= 2 3 0.25   # trailing comment

- 4 5
";
        let batches = UpdateBatch::parse_stream(text).unwrap();
        assert_eq!(batches.len(), 2);
        assert_eq!(
            batches[0].edits(),
            &[
                EdgeEdit::Insert { src: 0, dst: 1, weight: 2.5 },
                EdgeEdit::Reweight { src: 2, dst: 3, weight: 0.25 },
            ]
        );
        assert_eq!(batches[1].edits(), &[EdgeEdit::Delete { src: 4, dst: 5 }]);
        assert!(UpdateBatch::parse_stream("  \n# only comments\n").unwrap().is_empty());
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let cases = [
            ("? 0 1", 1),
            ("+ 0 1", 1),          // missing weight
            ("+ 0 1 x", 1),        // bad weight
            ("- 0", 1),            // missing target
            ("+ a 1 1.0", 1),      // bad node
            ("+ 0 1 1.0 extra", 1),
            ("+ 0 1 1.0\n- 2", 2), // error on the second line
        ];
        for (text, line) in cases {
            match UpdateBatch::parse_stream(text) {
                Err(KdashError::Graph(GraphError::Parse { line: l, .. })) => {
                    assert_eq!(l, line, "{text:?}")
                }
                other => panic!("{text:?}: expected parse error, got {other:?}"),
            }
        }
        // A line with no tokens is a typed error too, not a panic
        // (`parse_stream` skips such lines before they get here).
        assert!(matches!(
            parse_edit("  ", 4),
            Err(KdashError::Graph(GraphError::Parse { line: 4, .. }))
        ));
        // Structural weight validation also fires from the parser.
        assert!(matches!(
            UpdateBatch::parse_stream("+ 0 1 -3.0"),
            Err(KdashError::Graph(GraphError::InvalidWeight { .. }))
        ));
    }
}
