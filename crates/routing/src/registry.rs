//! Algorithm registry: build any of the paper's six algorithms by name.

use crate::{
    Ecube, NaiveMinimal, NegativeHop, NegativeHopBonusCards, NorthLast, PositiveHop,
    RoutingAlgorithm, RoutingError, TwoPowerN, WestFirst,
};
use std::fmt;
use std::str::FromStr;
use wormsim_topology::Topology;

/// The six routing algorithms of the ISCA '93 study.
///
/// # Example
///
/// ```
/// use wormsim_topology::Topology;
/// use wormsim_routing::AlgorithmKind;
///
/// let topo = Topology::torus(&[16, 16]);
/// for kind in AlgorithmKind::all() {
///     let algo = kind.build(&topo)?;
///     println!("{}: {} classes", algo.name(), algo.num_vc_classes());
/// }
/// # Ok::<(), wormsim_routing::RoutingError>(())
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AlgorithmKind {
    /// Non-adaptive dimension-order routing ([`Ecube`]).
    Ecube,
    /// Partially adaptive turn-model routing ([`NorthLast`]).
    NorthLast,
    /// Fully adaptive direction-tag routing ([`TwoPowerN`]).
    TwoPowerN,
    /// Fully adaptive positive-hop routing ([`PositiveHop`]).
    PositiveHop,
    /// Fully adaptive negative-hop routing ([`NegativeHop`]).
    NegativeHop,
    /// Negative-hop routing with bonus cards ([`NegativeHopBonusCards`]).
    NegativeHopBonusCards,
    /// Deadlock-prone single-class minimal routing ([`NaiveMinimal`]) —
    /// not part of the paper's comparison; a strawman for demonstrating
    /// why deadlock avoidance matters.
    NaiveMinimal,
    /// Partially adaptive west-first turn-model routing ([`WestFirst`]) —
    /// not in the paper's comparison, but the other canonical Glass–Ni
    /// turn-model member, provided for extension studies.
    WestFirst,
}

impl AlgorithmKind {
    /// All six algorithms, in the order the paper's figures legend them.
    pub const fn all() -> [AlgorithmKind; 6] {
        [
            AlgorithmKind::NegativeHopBonusCards,
            AlgorithmKind::PositiveHop,
            AlgorithmKind::NegativeHop,
            AlgorithmKind::TwoPowerN,
            AlgorithmKind::Ecube,
            AlgorithmKind::NorthLast,
        ]
    }

    /// The paper's six plus the repository's extension algorithms
    /// (west-first and the deadlock-prone naive strawman).
    pub const fn extended() -> [AlgorithmKind; 8] {
        [
            AlgorithmKind::NegativeHopBonusCards,
            AlgorithmKind::PositiveHop,
            AlgorithmKind::NegativeHop,
            AlgorithmKind::TwoPowerN,
            AlgorithmKind::Ecube,
            AlgorithmKind::NorthLast,
            AlgorithmKind::WestFirst,
            AlgorithmKind::NaiveMinimal,
        ]
    }

    /// The paper's short name for this algorithm.
    pub const fn name(self) -> &'static str {
        match self {
            AlgorithmKind::Ecube => "ecube",
            AlgorithmKind::NorthLast => "nlast",
            AlgorithmKind::TwoPowerN => "2pn",
            AlgorithmKind::PositiveHop => "phop",
            AlgorithmKind::NegativeHop => "nhop",
            AlgorithmKind::NegativeHopBonusCards => "nbc",
            AlgorithmKind::NaiveMinimal => "naive",
            AlgorithmKind::WestFirst => "wfirst",
        }
    }

    /// Builds the algorithm for `topo`.
    ///
    /// # Errors
    ///
    /// Propagates the constructor's error, e.g.
    /// [`RoutingError::RequiresBipartite`] for nhop/nbc on odd tori.
    pub fn build(self, topo: &Topology) -> Result<Box<dyn RoutingAlgorithm>, RoutingError> {
        Ok(match self {
            AlgorithmKind::Ecube => Box::new(Ecube::new(topo)?),
            AlgorithmKind::NorthLast => Box::new(NorthLast::new(topo)?),
            AlgorithmKind::TwoPowerN => Box::new(TwoPowerN::new(topo)?),
            AlgorithmKind::PositiveHop => Box::new(PositiveHop::new(topo)?),
            AlgorithmKind::NegativeHop => Box::new(NegativeHop::new(topo)?),
            AlgorithmKind::NegativeHopBonusCards => Box::new(NegativeHopBonusCards::new(topo)?),
            AlgorithmKind::NaiveMinimal => Box::new(NaiveMinimal::new(topo)?),
            AlgorithmKind::WestFirst => Box::new(WestFirst::new(topo)?),
        })
    }
}

impl fmt::Display for AlgorithmKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for AlgorithmKind {
    type Err = RoutingError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "ecube" | "e-cube" => Ok(AlgorithmKind::Ecube),
            "nlast" | "north-last" | "northlast" => Ok(AlgorithmKind::NorthLast),
            "2pn" | "two-power-n" | "twopowern" => Ok(AlgorithmKind::TwoPowerN),
            "phop" | "positive-hop" | "positivehop" => Ok(AlgorithmKind::PositiveHop),
            "nhop" | "negative-hop" | "negativehop" => Ok(AlgorithmKind::NegativeHop),
            "nbc" | "negative-hop-bonus-cards" => Ok(AlgorithmKind::NegativeHopBonusCards),
            "naive" | "naive-minimal" => Ok(AlgorithmKind::NaiveMinimal),
            "wfirst" | "west-first" | "westfirst" => Ok(AlgorithmKind::WestFirst),
            other => Err(RoutingError::UnknownAlgorithm {
                name: other.to_owned(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Adaptivity;

    #[test]
    fn builds_all_six_on_paper_torus() {
        let topo = Topology::torus(&[16, 16]);
        let expected_classes = [9, 17, 9, 4, 2, 3];
        for (kind, classes) in AlgorithmKind::all().iter().zip(expected_classes) {
            let algo = kind.build(&topo).unwrap();
            assert_eq!(algo.num_vc_classes(), classes, "{kind}");
            assert_eq!(algo.name(), kind.name());
        }
    }

    #[test]
    fn adaptivity_classes_match_paper() {
        let topo = Topology::torus(&[16, 16]);
        let adaptivity = |k: AlgorithmKind| k.build(&topo).unwrap().adaptivity();
        assert_eq!(adaptivity(AlgorithmKind::Ecube), Adaptivity::NonAdaptive);
        assert_eq!(
            adaptivity(AlgorithmKind::NorthLast),
            Adaptivity::PartiallyAdaptive
        );
        for k in [
            AlgorithmKind::TwoPowerN,
            AlgorithmKind::PositiveHop,
            AlgorithmKind::NegativeHop,
            AlgorithmKind::NegativeHopBonusCards,
        ] {
            assert_eq!(adaptivity(k), Adaptivity::FullyAdaptive);
        }
    }

    #[test]
    fn extended_includes_all() {
        let ext = AlgorithmKind::extended();
        for kind in AlgorithmKind::all() {
            assert!(ext.contains(&kind));
        }
        assert!(ext.contains(&AlgorithmKind::WestFirst));
        assert!(ext.contains(&AlgorithmKind::NaiveMinimal));
    }

    #[test]
    fn parse_roundtrip() {
        for kind in AlgorithmKind::extended() {
            assert_eq!(kind.name().parse::<AlgorithmKind>().unwrap(), kind);
        }
        assert!("warp-speed".parse::<AlgorithmKind>().is_err());
    }
}
