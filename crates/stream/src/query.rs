//! Declarative chain-join COUNT queries over registered streams —
//! the paper's §4 query form,
//! `SELECT COUNT(*) FROM R1, …, Rn WHERE R1.A = R2.A AND R2.B = R3.B …`,
//! answered from a [`RegistrySnapshot`] of whatever summaries the
//! streams were registered with.
//!
//! The spec names one registered stream per relation; inner relations name
//! the two summary dimensions that carry the chain's join attributes. At
//! estimation time the executor checks that every relation is summarized
//! by the *same method* and dispatches to that method's chain estimator.

use crate::processor::Summary;
use crate::snapshot::RegistrySnapshot;
use dctstream_core::{estimate_chain_join, ChainLink, DctError, Result};
use dctstream_sketch::{estimate_fast_join, estimate_join, estimate_skimmed_join};
use std::fmt;

/// One relation of a chain query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryLink {
    /// An end relation: its (1-d) summary is entirely on the join
    /// attribute.
    End {
        /// Registered stream name.
        stream: String,
    },
    /// An inner relation: `left`/`right` are the summary dimensions joined
    /// with the previous and next relation.
    Inner {
        /// Registered stream name.
        stream: String,
        /// Dimension joined with the previous relation.
        left: usize,
        /// Dimension joined with the next relation.
        right: usize,
    },
}

impl QueryLink {
    /// The registered stream this relation reads from.
    pub fn stream(&self) -> &str {
        match self {
            QueryLink::End { stream } | QueryLink::Inner { stream, .. } => stream,
        }
    }
}

/// A chain-join COUNT query: built once, estimated repeatedly as the
/// streams evolve (the continuous-query pattern of §1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainJoinQuery {
    links: Vec<QueryLink>,
}

/// Builder for [`ChainJoinQuery`].
#[derive(Debug, Default)]
pub struct ChainJoinQueryBuilder {
    links: Vec<QueryLink>,
}

impl ChainJoinQueryBuilder {
    /// Append an end relation (must be first and last).
    pub fn end(mut self, stream: impl Into<String>) -> Self {
        self.links.push(QueryLink::End {
            stream: stream.into(),
        });
        self
    }

    /// Append an inner relation joining `left`/`right` dimensions.
    pub fn inner(mut self, stream: impl Into<String>, left: usize, right: usize) -> Self {
        self.links.push(QueryLink::Inner {
            stream: stream.into(),
            left,
            right,
        });
        self
    }

    /// Finalize; validates the chain shape.
    pub fn build(self) -> Result<ChainJoinQuery> {
        let n = self.links.len();
        if n < 2 {
            return Err(DctError::InvalidChain(
                "a chain join needs at least two relations".into(),
            ));
        }
        if !matches!(self.links[0], QueryLink::End { .. })
            || !matches!(self.links[n - 1], QueryLink::End { .. })
        {
            return Err(DctError::InvalidChain(
                "the first and last relations must be ends".into(),
            ));
        }
        if self.links[1..n - 1]
            .iter()
            .any(|l| matches!(l, QueryLink::End { .. }))
        {
            return Err(DctError::InvalidChain(
                "inner relations must be declared with .inner()".into(),
            ));
        }
        Ok(ChainJoinQuery { links: self.links })
    }
}

impl ChainJoinQuery {
    /// Start building a query.
    pub fn builder() -> ChainJoinQueryBuilder {
        ChainJoinQueryBuilder::default()
    }

    /// The relations in chain order.
    pub fn links(&self) -> &[QueryLink] {
        &self.links
    }

    /// Number of join predicates.
    pub fn join_count(&self) -> usize {
        self.links.len() - 1
    }

    /// Estimate the query against a captured [`RegistrySnapshot`],
    /// optionally capping the per-relation space used (cosine
    /// coefficients / atomic sketches). Never locks and never mutates:
    /// the snapshot already carries flushed, `prepare()`d summaries
    /// (see [`RegistrySnapshot::capture`]), so concurrent readers can
    /// estimate while writers keep ingesting. A participant the
    /// snapshot withheld is a typed [`DctError::StreamQuarantined`];
    /// [`RegistrySnapshot::attribution`] over [`Self::streams`] names
    /// the participants that answered from a checkpoint substitute.
    pub fn estimate_at(&self, snapshot: &RegistrySnapshot, budget: Option<usize>) -> Result<f64> {
        let summaries = self
            .links
            .iter()
            .map(|link| snapshot.member(link.stream()))
            .collect::<Result<Vec<_>>>()?;
        self.estimate_over(&summaries, budget)
    }

    /// The participating stream names, in chain order.
    pub fn streams(&self) -> impl Iterator<Item = &str> {
        self.links.iter().map(QueryLink::stream)
    }

    /// Downcast every resolved summary to the method `get` extracts,
    /// with a typed error naming the offending relation and its actual
    /// method. Guards the dispatch below against summaries being swapped
    /// to a different method between query construction and estimation.
    fn downcast_all<'a, T>(
        &self,
        summaries: &[&'a Summary],
        method: &str,
        get: impl Fn(&'a Summary) -> Option<&'a T>,
    ) -> Result<Vec<&'a T>> {
        self.links
            .iter()
            .zip(summaries)
            .map(|(link, s)| {
                get(s).ok_or_else(|| {
                    DctError::InvalidParameter(format!(
                        "relation '{}' is summarized as {}, not the query's {method}",
                        link.stream(),
                        s.kind_name()
                    ))
                })
            })
            .collect()
    }

    /// Dispatch over already-resolved summaries, one per link in chain
    /// order.
    fn estimate_over(&self, summaries: &[&Summary], budget: Option<usize>) -> Result<f64> {
        debug_assert_eq!(summaries.len(), self.links.len());
        let _span = dctstream_obs::span!("query.latency");
        dctstream_obs::counter_add!("query.estimates", 1);
        // All-cosine chain.
        if summaries
            .iter()
            .all(|s| matches!(s, Summary::Cosine(_)) || matches!(s, Summary::Multi(_)))
        {
            let mut chain = Vec::with_capacity(self.links.len());
            for (link, summary) in self.links.iter().zip(summaries) {
                match (link, summary) {
                    (QueryLink::End { .. }, Summary::Cosine(c)) => {
                        chain.push(ChainLink::End(c));
                    }
                    (QueryLink::Inner { left, right, .. }, Summary::Multi(m)) => {
                        chain.push(ChainLink::Inner {
                            synopsis: m,
                            left: *left,
                            right: *right,
                        });
                    }
                    (QueryLink::End { stream }, _) => {
                        return Err(DctError::InvalidChain(format!(
                            "end relation '{stream}' must be a 1-d cosine synopsis"
                        )))
                    }
                    (QueryLink::Inner { stream, .. }, _) => {
                        return Err(DctError::InvalidChain(format!(
                            "inner relation '{stream}' must be a multi-dimensional synopsis"
                        )))
                    }
                }
            }
            return estimate_chain_join(&chain, budget);
        }

        // All basic-sketch chain.
        if summaries.iter().all(|s| matches!(s, Summary::Ams(_))) {
            let refs = self.downcast_all(summaries, "basic AGMS sketch", Summary::as_ams)?;
            return estimate_join(&refs, budget);
        }

        // All skimmed-sketch chain (must be prepared).
        if summaries.iter().all(|s| matches!(s, Summary::Skimmed(_))) {
            let refs = self.downcast_all(summaries, "skimmed sketch", Summary::as_skimmed)?;
            return estimate_skimmed_join(&refs, budget);
        }

        // All fast-AGMS chain.
        if summaries.iter().all(|s| matches!(s, Summary::FastAms(_))) {
            let refs = self.downcast_all(summaries, "fast-AGMS sketch", Summary::as_fast_ams)?;
            return estimate_fast_join(&refs, budget);
        }

        let kinds: Vec<String> = self
            .links
            .iter()
            .zip(summaries)
            .map(|(l, s)| format!("'{}' is summarized as {}", l.stream(), s.kind_name()))
            .collect();
        Err(DctError::InvalidParameter(format!(
            "all relations of a query must be summarized by the same method ({})",
            kinds.join(", ")
        )))
    }
}

impl fmt::Display for ChainJoinQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SELECT COUNT(*) FROM ")?;
        for (i, l) in self.links.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", l.stream())?;
        }
        write!(f, " WHERE ")?;
        for i in 0..self.join_count() {
            if i > 0 {
                write!(f, " AND ")?;
            }
            let left = &self.links[i];
            let right = &self.links[i + 1];
            let lattr = match left {
                QueryLink::End { .. } => "a0".to_string(),
                QueryLink::Inner { right: r, .. } => format!("a{r}"),
            };
            let rattr = match right {
                QueryLink::End { .. } => "a0".to_string(),
                QueryLink::Inner { left: l, .. } => format!("a{l}"),
            };
            write!(f, "{}.{lattr} = {}.{rattr}", left.stream(), right.stream())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::processor::StreamProcessor;
    use dctstream_core::{CosineSynopsis, Domain, Grid, MultiDimSynopsis};
    use dctstream_sketch::{AmsSketch, FastAmsSketch, FastSchema, SketchSchema};

    fn cosine_processor() -> StreamProcessor {
        let d = Domain::of_size(16);
        let mut p = StreamProcessor::new();
        let mut r1 = CosineSynopsis::new(d, Grid::Midpoint, 16).unwrap();
        let mut r3 = CosineSynopsis::new(d, Grid::Midpoint, 16).unwrap();
        let mut r2 = MultiDimSynopsis::new(vec![d, d], Grid::Midpoint, 16).unwrap();
        for a in 0..16i64 {
            r1.update(a, (a % 3 + 1) as f64).unwrap();
            r3.update(a, (a % 2 + 1) as f64).unwrap();
            for b in 0..16i64 {
                if (a + b) % 4 == 0 {
                    r2.update(&[a, b], 2.0).unwrap();
                }
            }
        }
        p.register("r1", Summary::Cosine(r1)).unwrap();
        p.register("r2", Summary::Multi(r2)).unwrap();
        p.register("r3", Summary::Cosine(r3)).unwrap();
        p
    }

    /// Capture `p` and estimate `q` on the capture.
    fn estimate(q: &ChainJoinQuery, p: &mut StreamProcessor) -> Result<f64> {
        q.estimate_at(&RegistrySnapshot::capture(p, 1)?, None)
    }

    #[test]
    fn builder_validates_shape() {
        assert!(ChainJoinQuery::builder().end("a").build().is_err());
        assert!(ChainJoinQuery::builder()
            .inner("a", 0, 1)
            .end("b")
            .build()
            .is_err());
        assert!(ChainJoinQuery::builder()
            .end("a")
            .end("b")
            .end("c")
            .build()
            .is_err());
        let q = ChainJoinQuery::builder()
            .end("a")
            .inner("b", 0, 1)
            .end("c")
            .build()
            .unwrap();
        assert_eq!(q.join_count(), 2);
    }

    #[test]
    fn cosine_query_matches_direct_estimation() {
        let mut p = cosine_processor();
        let q = ChainJoinQuery::builder()
            .end("r1")
            .inner("r2", 0, 1)
            .end("r3")
            .build()
            .unwrap();
        let via_query = estimate(&q, &mut p).unwrap();
        // Direct computation with the same synopses.
        let r1 = p.summary("r1").unwrap().as_cosine().unwrap();
        let r2 = p.summary("r2").unwrap().as_multi().unwrap();
        let r3 = p.summary("r3").unwrap().as_cosine().unwrap();
        let direct = estimate_chain_join(
            &[
                ChainLink::End(r1),
                ChainLink::Inner {
                    synopsis: r2,
                    left: 0,
                    right: 1,
                },
                ChainLink::End(r3),
            ],
            None,
        )
        .unwrap();
        assert_eq!(via_query, direct);
        // Exact value for this fully-determined workload.
        let mut exact = 0.0;
        for a in 0..16i64 {
            for b in 0..16i64 {
                if (a + b) % 4 == 0 {
                    exact += ((a % 3 + 1) * 2 * (b % 2 + 1)) as f64;
                }
            }
        }
        // Triangular truncation at degree 16 does not cover the full 16x16
        // spectrum of this periodic pattern, so allow approximation error.
        assert!(
            (via_query - exact).abs() / exact < 0.5,
            "est {via_query} vs exact {exact}"
        );
    }

    #[test]
    fn sketch_queries_dispatch() {
        let schema = SketchSchema::new(3, 3, 20, 1).unwrap();
        let mut p = StreamProcessor::new();
        let mut a = AmsSketch::new(schema, vec![0]).unwrap();
        let mut b = AmsSketch::new(schema, vec![0]).unwrap();
        for v in 0..50i64 {
            a.update(&[v % 10], 1.0).unwrap();
            b.update(&[v % 5], 1.0).unwrap();
        }
        p.register("a", Summary::Ams(a)).unwrap();
        p.register("b", Summary::Ams(b)).unwrap();
        let q = ChainJoinQuery::builder().end("a").end("b").build().unwrap();
        assert!(estimate(&q, &mut p).unwrap().is_finite());

        let fschema = FastSchema::for_single_join(4, 60, 3).unwrap();
        let mut fa = FastAmsSketch::new(fschema.clone(), vec![0]).unwrap();
        let mut fb = FastAmsSketch::new(fschema, vec![0]).unwrap();
        for v in 0..50i64 {
            fa.update(&[v % 10], 1.0).unwrap();
            fb.update(&[v % 5], 1.0).unwrap();
        }
        p.register("fa", Summary::FastAms(fa)).unwrap();
        p.register("fb", Summary::FastAms(fb)).unwrap();
        let q = ChainJoinQuery::builder()
            .end("fa")
            .end("fb")
            .build()
            .unwrap();
        assert!(estimate(&q, &mut p).unwrap().is_finite());
    }

    #[test]
    fn mixed_methods_rejected() {
        let mut p = cosine_processor();
        let schema = SketchSchema::new(3, 2, 4, 1).unwrap();
        p.register(
            "ams",
            Summary::Ams(AmsSketch::new(schema, vec![0]).unwrap()),
        )
        .unwrap();
        let q = ChainJoinQuery::builder()
            .end("r1")
            .end("ams")
            .build()
            .unwrap();
        assert!(estimate(&q, &mut p).is_err());
    }

    #[test]
    fn wrong_summary_shape_rejected() {
        let mut p = cosine_processor();
        // r2 is multi-dimensional; using it as an end must fail.
        let q = ChainJoinQuery::builder()
            .end("r2")
            .end("r3")
            .build()
            .unwrap();
        assert!(matches!(
            estimate(&q, &mut p),
            Err(DctError::InvalidChain(_))
        ));
        // Unknown stream.
        let q = ChainJoinQuery::builder()
            .end("nope")
            .end("r3")
            .build()
            .unwrap();
        assert!(estimate(&q, &mut p).is_err());
    }

    #[test]
    fn summary_swapped_after_construction_is_a_typed_error() {
        // A query is built once and estimated repeatedly; between two
        // estimates the operator may re-register a stream with a
        // different summary method. That must surface as a typed error,
        // never a panic.
        let schema = SketchSchema::new(3, 3, 20, 1).unwrap();
        let mut p = StreamProcessor::new();
        p.register("a", Summary::Ams(AmsSketch::new(schema, vec![0]).unwrap()))
            .unwrap();
        p.register("b", Summary::Ams(AmsSketch::new(schema, vec![0]).unwrap()))
            .unwrap();
        let q = ChainJoinQuery::builder().end("a").end("b").build().unwrap();
        assert!(estimate(&q, &mut p).is_ok());

        // Swap 'b' to a cosine synopsis after the query exists.
        p.unregister("b");
        p.register(
            "b",
            Summary::Cosine(CosineSynopsis::new(Domain::of_size(16), Grid::Midpoint, 8).unwrap()),
        )
        .unwrap();
        let e = estimate(&q, &mut p).unwrap_err();
        assert!(
            matches!(e, DctError::InvalidParameter(_) | DctError::InvalidChain(_)),
            "{e}"
        );

        // The dispatch-level downcast itself is typed too: feed
        // estimate_over a summary set that lies about its method.
        let ams = p.summary("a").unwrap();
        let cos = p.summary("b").unwrap();
        let e = q.estimate_over(&[ams, cos], None).unwrap_err();
        assert!(e.to_string().contains("'b'"), "{e}");
        let mixed_guard_hit = e.to_string().contains("same method");
        assert!(
            !mixed_guard_hit || q.estimate_over(&[ams, ams], None).is_ok(),
            "downcast errors must name the relation"
        );
    }

    #[test]
    fn display_renders_sql_like_text() {
        let q = ChainJoinQuery::builder()
            .end("R1")
            .inner("R2", 0, 1)
            .end("R3")
            .build()
            .unwrap();
        let s = q.to_string();
        assert!(s.starts_with("SELECT COUNT(*) FROM R1, R2, R3 WHERE "));
        assert!(s.contains("R1.a0 = R2.a0"));
        assert!(s.contains("R2.a1 = R3.a0"));
    }
}
