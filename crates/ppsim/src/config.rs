//! Helpers for inspecting configurations (the vector of all agent states).

use crate::protocol::Protocol;

/// Summary statistics over a configuration, computed against a protocol's output
/// function.
///
/// Constructed with [`ConfigurationStats::from_states`]; used by convergence
/// predicates and by the experiment harness to ask questions like "do all agents
/// currently output the same value?".
#[derive(Debug, Clone)]
pub struct ConfigurationStats<O> {
    histogram: Vec<(O, usize)>,
    n: usize,
}

impl<O: Clone + PartialEq> ConfigurationStats<O> {
    /// Compute the output histogram of `states` under `protocol`.
    pub fn from_states<P>(protocol: &P, states: &[P::State]) -> Self
    where
        P: Protocol<Output = O>,
    {
        let mut histogram: Vec<(O, usize)> = Vec::new();
        for s in states {
            let o = protocol.output(s);
            match histogram.iter_mut().find(|(v, _)| *v == o) {
                Some((_, c)) => *c += 1,
                None => histogram.push((o, 1)),
            }
        }
        ConfigurationStats {
            histogram,
            n: states.len(),
        }
    }

    /// Build the histogram directly from `(output, count)` pairs — the `O(q)`
    /// path used by the batched count-based engine, where `q` is the number of
    /// occupied states rather than the population size.
    ///
    /// Pairs with equal outputs are aggregated; zero counts are kept out of
    /// the histogram so `distinct_outputs` only reports outputs that are
    /// actually present.
    pub fn from_counts<I>(pairs: I) -> Self
    where
        I: IntoIterator<Item = (O, usize)>,
    {
        let mut histogram: Vec<(O, usize)> = Vec::new();
        let mut n = 0;
        for (o, c) in pairs {
            if c == 0 {
                continue;
            }
            n += c;
            match histogram.iter_mut().find(|(v, _)| *v == o) {
                Some((_, total)) => *total += c,
                None => histogram.push((o, c)),
            }
        }
        ConfigurationStats { histogram, n }
    }

    /// The population size.
    #[must_use]
    pub fn population(&self) -> usize {
        self.n
    }

    /// The number of distinct outputs currently present.
    #[must_use]
    pub fn distinct_outputs(&self) -> usize {
        self.histogram.len()
    }

    /// Returns the single common output if *all* agents agree, `None` otherwise.
    #[must_use]
    pub fn unanimous(&self) -> Option<&O> {
        if self.histogram.len() == 1 {
            Some(&self.histogram[0].0)
        } else {
            None
        }
    }

    /// Number of agents currently outputting `value`.
    #[must_use]
    pub fn count_of(&self, value: &O) -> usize {
        self.histogram
            .iter()
            .find(|(v, _)| v == value)
            .map_or(0, |(_, c)| *c)
    }

    /// The most common output and its multiplicity; `None` for an empty population.
    #[must_use]
    pub fn plurality(&self) -> Option<(&O, usize)> {
        self.histogram
            .iter()
            .max_by_key(|(_, c)| *c)
            .map(|(v, c)| (v, *c))
    }

    /// Iterate over `(output, count)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&O, usize)> {
        self.histogram.iter().map(|(v, c)| (v, *c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;

    struct Parity;
    impl Protocol for Parity {
        type State = u8;
        type Output = bool;
        fn initial_state(&self) -> u8 {
            0
        }
        fn interact(&self, u: &mut u8, v: &mut u8, _rng: &mut SmallRng) {
            *u ^= 1;
            *v ^= 1;
        }
        fn output(&self, s: &u8) -> bool {
            (*s).is_multiple_of(2)
        }
    }

    #[test]
    fn histogram_counts_outputs() {
        let states = vec![0u8, 1, 2, 3, 4];
        let stats = ConfigurationStats::from_states(&Parity, &states);
        assert_eq!(stats.population(), 5);
        assert_eq!(stats.distinct_outputs(), 2);
        assert_eq!(stats.count_of(&true), 3);
        assert_eq!(stats.count_of(&false), 2);
        assert_eq!(stats.plurality(), Some((&true, 3)));
        assert!(stats.unanimous().is_none());
    }

    #[test]
    fn unanimous_detects_agreement() {
        let states = vec![0u8, 2, 4];
        let stats = ConfigurationStats::from_states(&Parity, &states);
        assert_eq!(stats.unanimous(), Some(&true));
    }

    #[test]
    fn empty_population_has_no_plurality() {
        let states: Vec<u8> = vec![];
        let stats = ConfigurationStats::from_states(&Parity, &states);
        assert!(stats.plurality().is_none());
        assert_eq!(stats.distinct_outputs(), 0);
    }
}
