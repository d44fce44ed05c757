//! Exact samplers used by the batched count-based engine.
//!
//! The batched engine ([`BatchedSimulator`](crate::BatchedSimulator)) advances
//! time in *collision-free* blocks: it first samples how many consecutive
//! interactions involve pairwise-distinct agents (the birthday-process
//! distribution, [`CollisionSampler`]), then samples *which* states those
//! agents hold via multivariate hypergeometric draws from the configuration's
//! state counts, visiting only the occupied states
//! ([`multivariate_hypergeometric_sparse`]).  Both samplers are exact
//! (up to `f64` rounding in the inverse-transform step), so the batched engine
//! simulates the *same* stochastic process as the sequential per-interaction
//! engine — not an approximation of it.  [`hypergeometric`] and [`binomial`]
//! share one inverse-transform walk outward from the mode (narrow
//! distributions) and one log-concave rejection sampler (wide ones).

use rand::rngs::SmallRng;
use rand::Rng;

/// Exact-by-summation `ln(n!)` for small `n`, filled once on first use.
fn small_ln_factorials() -> &'static [f64; 128] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[f64; 128]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = [0.0f64; 128];
        for n in 2..t.len() {
            t[n] = t[n - 1] + (n as f64).ln();
        }
        t
    })
}

/// Slots of the per-thread large-argument memo for [`ln_factorial`]
/// (direct-mapped by the argument's low bits; 16 KiB per thread).
const LN_FACT_MEMO_SLOTS: usize = 1024;

thread_local! {
    /// `(argument, ln_factorial(argument))` pairs; arguments are ≥ 128, so a
    /// zero key marks an empty slot.
    static LN_FACT_MEMO: std::cell::RefCell<[(u64, f64); LN_FACT_MEMO_SLOTS]> =
        const { std::cell::RefCell::new([(0, 0.0); LN_FACT_MEMO_SLOTS]) };
}

/// `ln(n!)`, accurate to ~1e-12 relative error.
///
/// Hot enough to matter: every hypergeometric mode/pmf computation costs ~9
/// evaluations and the batched engine performs several draws per
/// collision-free block.  Small arguments come from a summation table; large
/// ones from a Stirling series behind a per-thread direct-mapped memo — the
/// arguments of a block's draws repeat heavily (`ln C(total, draws)` terms
/// where the totals shrink by the class counts as the multivariate
/// decomposition walks the occupied states, and the first draw of every block
/// starts from the same population size), so most lookups hit.
#[must_use]
pub fn ln_factorial(n: u64) -> f64 {
    let table = small_ln_factorials();
    if (n as usize) < table.len() {
        return table[n as usize];
    }
    LN_FACT_MEMO.with(|memo| {
        let mut memo = memo.borrow_mut();
        let slot = (n as usize) & (LN_FACT_MEMO_SLOTS - 1);
        let (key, value) = memo[slot];
        if key == n {
            return value;
        }
        // Stirling series: error < 1/(1680 n⁷), far below f64 noise for n ≥ 128.
        let nf = n as f64;
        let inv = 1.0 / nf;
        let inv2 = inv * inv;
        let value = (nf + 0.5) * nf.ln() - nf
            + 0.5 * (2.0 * std::f64::consts::PI).ln()
            + inv * (1.0 / 12.0 - inv2 * (1.0 / 360.0 - inv2 / 1260.0));
        memo[slot] = (n, value);
        value
    })
}

/// `ln C(n, k)` (natural log of the binomial coefficient).
#[must_use]
fn ln_choose(n: u64, k: u64) -> f64 {
    debug_assert!(k <= n);
    ln_factorial(n) - ln_factorial(k) - ln_factorial(n - k)
}

/// Standard deviation below which the inverse-transform walk beats the
/// rejection sampler's fixed setup cost (a handful of `ln_choose`
/// evaluations).
const REJECTION_SIGMA: f64 = 96.0;

/// Draw from an arbitrary **log-concave** discrete distribution supported on
/// `lo..=hi` with the given `mode`, via rejection from a
/// uniform-body-plus-geometric-tails envelope.
///
/// The envelope needs no distribution-specific constants — log-concavity
/// alone guarantees domination:
///
/// * on the body `[a, b] = [mode − d, mode + d] ∩ [lo, hi]` the pmf is at
///   most its mode value (uniform envelope);
/// * beyond the body, successive pmf ratios are non-increasing, so the tail
///   starting at `x₀ = b + 1` satisfies `f(x₀ + t) ≤ f(x₀)·r^t` with
///   `r = f(x₀+1)/f(x₀)` (a geometric envelope), and symmetrically below
///   `a − 1`.
///
/// With the body half-width `d ≈ 1.3σ` the envelope's total mass is ~1.3–1.6
/// of the distribution's, so the expected number of iterations is a small
/// constant **independent of σ** — each costing one `ln_pmf` evaluation.
/// `ln_pmf` is only queried inside `[lo, hi]` and may return `−∞` nowhere on
/// that range.
///
/// Returns `None` (caller falls back to the inverse-transform walk) in the
/// degenerate case of a tail ratio so close to 1 that a geometric envelope
/// cannot be anchored without risking domination failure — impossible for
/// the engines' parameter ranges, but cheap to guard.
fn log_concave_reject(
    rng: &mut SmallRng,
    lo: u64,
    hi: u64,
    mode: u64,
    sigma: f64,
    ln_pmf: impl Fn(u64) -> f64,
) -> Option<u64> {
    debug_assert!((lo..=hi).contains(&mode));
    let ln_f_mode = ln_pmf(mode);
    let d = (1.3 * sigma).ceil().max(1.0) as u64;
    let a = mode.saturating_sub(d).max(lo);
    let b = (mode + d).min(hi);

    // Relative (to the mode probability) envelope masses of the three
    // regions; `ln_r_*` are the geometric tail log-ratios, strictly negative
    // because the pmf is strictly decreasing one step beyond the body (the
    // only possible plateau of a log-concave pmf is at the mode itself).
    let tail = |anchor: f64, next: Option<f64>| -> Option<(f64, f64, f64)> {
        let ln_h = anchor - ln_f_mode;
        let ln_r = match next {
            Some(n) => {
                let ln_r = n - anchor;
                if ln_r >= -1e-12 {
                    return None; // flat tail: envelope unusable, fall back
                }
                ln_r
            }
            None => f64::NEG_INFINITY, // single-point tail
        };
        Some((ln_h.exp() / (1.0 - ln_r.exp()), ln_h, ln_r))
    };
    let body = (b - a + 1) as f64;
    let (right, ln_h_right, ln_r_right) = if b < hi {
        tail(ln_pmf(b + 1), (b + 1 < hi).then(|| ln_pmf(b + 2)))?
    } else {
        (0.0, f64::NEG_INFINITY, f64::NEG_INFINITY)
    };
    let (left, ln_h_left, ln_r_left) = if a > lo {
        tail(ln_pmf(a - 1), (a - 1 > lo).then(|| ln_pmf(a - 2)))?
    } else {
        (0.0, f64::NEG_INFINITY, f64::NEG_INFINITY)
    };
    let total_mass = body + right + left;

    loop {
        let z = rng.gen::<f64>() * total_mass;
        let (candidate, ln_envelope) = if z < body {
            // Uniform body: reuse the fractional part as the vertical
            // coordinate.
            let x = a + (z as u64).min(b - a);
            let v = z.fract();
            if v.max(f64::MIN_POSITIVE).ln() <= ln_pmf(x) - ln_f_mode {
                return Some(x);
            }
            continue;
        } else if z < body + right {
            // Geometric right tail: t ~ Geom(1 − r).
            let t = geometric_jump(rng, ln_r_right);
            match b.checked_add(1 + t) {
                Some(x) if x <= hi => (x, ln_h_right + t as f64 * ln_r_right),
                _ => continue, // envelope mass beyond the support: reject
            }
        } else {
            let t = geometric_jump(rng, ln_r_left);
            match (a - 1).checked_sub(t) {
                Some(x) if x >= lo => (x, ln_h_left + t as f64 * ln_r_left),
                _ => continue,
            }
        };
        let v: f64 = rng.gen();
        if v.max(f64::MIN_POSITIVE).ln() + ln_envelope <= ln_pmf(candidate) - ln_f_mode {
            return Some(candidate);
        }
    }
}

/// Sample `t = ⌊ln u / ln r⌋`, the jump length of a geometric tail with
/// log-ratio `ln_r < 0` (`t = 0` for a single-point tail).
fn geometric_jump(rng: &mut SmallRng, ln_r: f64) -> u64 {
    if ln_r == f64::NEG_INFINITY {
        return 0;
    }
    let u: f64 = rng.gen();
    let t = u.max(f64::MIN_POSITIVE).ln() / ln_r;
    // Cap far beyond any support the engines use; the rejection test discards
    // out-of-support candidates anyway.
    t.min(9.0e18) as u64
}

/// `ln P(X = k)` of the hypergeometric distribution.
#[inline]
fn ln_pmf_hypergeometric(total: u64, success: u64, draws: u64, k: u64) -> f64 {
    ln_choose(success, k) + ln_choose(total - success, draws - k) - ln_choose(total, draws)
}

/// Draw from the hypergeometric distribution: the number of *successes* in
/// `draws` draws **without replacement** from a population of `total` items of
/// which `success` are successes.
///
/// Exact sampling at `O(1)` expected cost regardless of the parameters: small
/// spreads use inverse transform from the mode with pmf-ratio recurrences
/// (`O(σ)`, a few iterations), large spreads use log-concave rejection
/// (`log_concave_reject`: a uniform body with geometric tails, a small
/// constant number of iterations independent of `σ`).  The crossover keeps
/// the engines' hot draws — tiny per-block hypergeometrics as well as the
/// sharded engine's `σ ≈ √(n/S)`-scale cross-shard and rebalancing draws —
/// on their cheap path.
///
/// # Examples
///
/// ```rust
/// use ppsim::sample::hypergeometric;
///
/// let mut rng = ppsim::seeded_rng(42);
/// // 50 draws without replacement from 1000 items of which 300 are successes:
/// // the sample count is within the support and near the mean 15.
/// let k = hypergeometric(&mut rng, 1000, 300, 50);
/// assert!(k <= 50);
/// // Degenerate supports are exact, not sampled.
/// assert_eq!(hypergeometric(&mut rng, 10, 0, 7), 0);
/// assert_eq!(hypergeometric(&mut rng, 10, 10, 7), 7);
/// assert_eq!(hypergeometric(&mut rng, 10, 4, 10), 4);
/// ```
///
/// # Panics
///
/// Panics if `draws > total` or `success > total` — a batch can never draw
/// more agents than the population holds.
#[must_use]
pub fn hypergeometric(rng: &mut SmallRng, total: u64, success: u64, draws: u64) -> u64 {
    assert!(
        draws <= total,
        "cannot draw {draws} items without replacement from a population of {total}"
    );
    assert!(
        success <= total,
        "success count {success} exceeds population {total}"
    );
    // Degenerate supports first: they are common in the engine's inner loop.
    if draws == 0 || success == 0 {
        return 0;
    }
    if success == total {
        return draws;
    }
    if draws == total {
        return success;
    }

    let failure = total - success;
    let lo = draws.saturating_sub(failure); // max(0, draws - (total - success))
    let hi = success.min(draws);
    if lo == hi {
        return lo;
    }

    // Mode of the hypergeometric: floor((draws+1)(success+1)/(total+2)).
    let mode = (((draws + 1) as u128 * (success + 1) as u128) / (total + 2) as u128) as u64;
    let mode = mode.clamp(lo, hi);

    // Wide distributions take the O(1) log-concave rejection path; narrow
    // ones fall through to the O(σ) inverse-transform walk below.  Since
    // σ ≤ √(min(draws, hi−lo))/2, a single integer compare keeps the hot
    // small-draw path free of the σ computation entirely.
    if (hi - lo).min(draws) as f64 > 4.0 * REJECTION_SIGMA * REJECTION_SIGMA {
        let tf = total as f64;
        let sigma = (draws as f64
            * (success as f64 / tf)
            * (failure as f64 / tf)
            * ((total - draws) as f64 / (tf - 1.0)))
            .sqrt();
        if sigma > REJECTION_SIGMA {
            if let Some(k) = log_concave_reject(rng, lo, hi, mode, sigma, |k| {
                ln_pmf_hypergeometric(total, success, draws, k)
            }) {
                return k;
            }
        }
    }

    let ln_p_mode =
        ln_choose(success, mode) + ln_choose(failure, draws - mode) - ln_choose(total, draws);
    let p_mode = ln_p_mode.exp();

    // p(k+1)/p(k) = (success-k)(draws-k) / ((k+1)(failure-draws+k+1)).
    // On the valid support k ≥ lo the mixed terms are non-negative, but they
    // must be summed before subtracting to avoid unsigned underflow.
    let ratio_up = |k: u64| -> f64 {
        ((success - k) as f64 * (draws - k) as f64)
            / ((k + 1) as f64 * (failure + k + 1 - draws) as f64)
    };
    // p(k-1)/p(k) = k(failure-draws+k) / ((success-k+1)(draws-k+1))
    let ratio_down = |k: u64| -> f64 {
        (k as f64 * (failure + k - draws) as f64)
            / ((success - k + 1) as f64 * (draws - k + 1) as f64)
    };

    walk_from_mode(rng, lo, hi, mode, p_mode, ratio_up, ratio_down)
}

/// The inverse-transform walk of [`hypergeometric`] and [`binomial`] on
/// `lo..=hi`: draw `u`, then add pmf mass outward from `mode`, alternating
/// up and down via `ratio_up(k) = p(k+1)/p(k)`, `ratio_down(k) = p(k−1)/p(k)`.
#[inline]
fn walk_from_mode(
    rng: &mut SmallRng,
    lo: u64,
    hi: u64,
    mode: u64,
    p_mode: f64,
    ratio_up: impl Fn(u64) -> f64,
    ratio_down: impl Fn(u64) -> f64,
) -> u64 {
    let u: f64 = rng.gen();
    let mut acc = p_mode;
    if u < acc {
        return mode;
    }
    let (mut up_k, mut up_p) = (mode, p_mode);
    let (mut down_k, mut down_p) = (mode, p_mode);
    loop {
        let mut advanced = false;
        if up_k < hi {
            up_p *= ratio_up(up_k);
            up_k += 1;
            acc += up_p;
            if u < acc {
                return up_k;
            }
            advanced = true;
        }
        if down_k > lo {
            down_p *= ratio_down(down_k);
            down_k -= 1;
            acc += down_p;
            if u < acc {
                return down_k;
            }
            advanced = true;
        }
        if !advanced {
            // The accumulated mass fell a few ulps short of 1; u landed in the
            // rounding gap.  Returning the mode keeps the bias below ~1e-13.
            return mode;
        }
    }
}

/// Draw from the binomial distribution: the number of successes in `trials`
/// independent Bernoulli(`p`) experiments.
///
/// Uses the same inverse-transform-from-the-mode construction as
/// [`hypergeometric`]: expected cost `O(σ)` with `σ = √(trials·p·(1−p))`,
/// independent of the success probability's denominator.  The sharded engine
/// draws one binomial per shard-pair category per epoch, so the cost is
/// amortised over millions of interactions.
///
/// # Panics
///
/// Panics if `p` is not a probability (outside `[0, 1]` or NaN).
#[must_use]
pub fn binomial(rng: &mut SmallRng, trials: u64, p: f64) -> u64 {
    assert!(
        (0.0..=1.0).contains(&p),
        "binomial success probability {p} outside [0, 1]"
    );
    if trials == 0 || p == 0.0 {
        return 0;
    }
    if p == 1.0 {
        return trials;
    }
    let ln_p = p.ln();
    let ln_q = (1.0 - p).ln();
    let ln_pmf =
        |k: u64| -> f64 { ln_choose(trials, k) + k as f64 * ln_p + (trials - k) as f64 * ln_q };
    // Mode of the binomial: floor((trials + 1)·p), clamped to the support.
    let mode = (((trials + 1) as f64) * p).floor().min(trials as f64) as u64;

    // Wide distributions take the O(1) log-concave rejection path (see
    // `hypergeometric`); narrow ones use the inverse-transform walk below.
    // σ ≤ √trials/2, so small trial counts skip the σ computation.
    if trials as f64 > 4.0 * REJECTION_SIGMA * REJECTION_SIGMA {
        let sigma = (trials as f64 * p * (1.0 - p)).sqrt();
        if sigma > REJECTION_SIGMA {
            if let Some(k) = log_concave_reject(rng, 0, trials, mode, sigma, ln_pmf) {
                return k;
            }
        }
    }

    let p_mode = ln_pmf(mode).exp();

    // p(k+1)/p(k) = (trials − k)/(k + 1) · p/(1 − p).
    let odds = p / (1.0 - p);
    let ratio_up = |k: u64| -> f64 { (trials - k) as f64 / (k + 1) as f64 * odds };
    // p(k−1)/p(k) = k / (trials − k + 1) · (1 − p)/p.
    let ratio_down = |k: u64| -> f64 { k as f64 / (trials - k + 1) as f64 / odds };

    walk_from_mode(rng, 0, trials, mode, p_mode, ratio_up, ratio_down)
}

/// Draw a multinomial sample: distribute `trials` items over categories with
/// (unnormalised, possibly huge) integer `weights`, writing the per-category
/// counts into `out` (resized to `weights.len()`).
///
/// Conditional decomposition: category `i` receives
/// `Binomial(remaining_trials, weights[i] / remaining_weight)` items, the last
/// non-empty category takes whatever is left.  Weights are `u128` so that the
/// sharded engine can pass exact pair counts (`m_k·m_l` up to `10¹⁸`) without
/// rounding.
///
/// # Panics
///
/// Panics if `trials > 0` and every weight is zero.
pub fn multinomial(rng: &mut SmallRng, trials: u64, weights: &[u128], out: &mut Vec<u64>) {
    out.clear();
    out.resize(weights.len(), 0);
    let mut remaining_weight: u128 = weights.iter().sum();
    assert!(
        trials == 0 || remaining_weight > 0,
        "cannot distribute {trials} items over all-zero weights"
    );
    let mut remaining = trials;
    for (slot, &w) in out.iter_mut().zip(weights) {
        if remaining == 0 {
            break;
        }
        if w == 0 {
            continue;
        }
        let k = if w == remaining_weight {
            remaining
        } else {
            binomial(rng, remaining, w as f64 / remaining_weight as f64)
        };
        *slot = k;
        remaining -= k;
        remaining_weight -= w;
    }
    debug_assert_eq!(remaining, 0, "the weight mass was exhausted early");
}

/// One step of the conditional decomposition shared by every multivariate
/// hypergeometric loop in this crate: how many of the `remaining_draws` items
/// land in the current class of size `class_count`, out of `remaining_total`
/// items still in the pool.  The last non-empty class takes whatever is left.
#[inline]
pub(crate) fn conditional_class_draw(
    rng: &mut SmallRng,
    class_count: u64,
    remaining_total: u64,
    remaining_draws: u64,
) -> u64 {
    if class_count == remaining_total {
        remaining_draws
    } else {
        hypergeometric(rng, remaining_total, class_count, remaining_draws)
    }
}

/// Sparse multivariate hypergeometric draw, as used by the batched engine:
/// `draws` agents without replacement from the sub-population
/// `total = Σ counts[s]` over `s ∈ occupied`, appended to `out` as
/// `(state, k)` pairs with `k > 0`.
///
/// Only the listed states are visited, so the cost is `O(|occupied|)`
/// regardless of how large (and empty) the full state space is.  `occupied`
/// may contain states with zero count; they are skipped.
pub fn multivariate_hypergeometric_sparse(
    rng: &mut SmallRng,
    counts: &[u64],
    occupied: &[u32],
    total: u64,
    draws: u64,
    out: &mut Vec<(u32, u64)>,
) {
    debug_assert!(draws <= total);
    out.clear();
    let mut remaining_total = total;
    let mut remaining_draws = draws;
    for &s in occupied {
        if remaining_draws == 0 {
            break;
        }
        let c = counts[s as usize];
        if c == 0 {
            continue;
        }
        let k = conditional_class_draw(rng, c, remaining_total, remaining_draws);
        if k > 0 {
            out.push((s, k));
        }
        remaining_draws -= k;
        remaining_total -= c;
    }
    debug_assert_eq!(remaining_draws, 0, "the occupied list lost agents");
}

/// Where the first colliding agent of a batch appears.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Collision {
    /// The initiator of the colliding interaction had already interacted
    /// earlier in the batch.
    pub initiator_used: bool,
    /// The responder of the colliding interaction had already interacted
    /// earlier in the batch.
    pub responder_used: bool,
}

/// Result of sampling the length of one collision-free batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchDraw {
    /// Number of leading interactions whose `2·clean` agents are pairwise
    /// distinct.
    pub clean: u64,
    /// The collision terminating the batch, or `None` if the batch was
    /// truncated at the caller's cap before any collision occurred.
    pub collision: Option<Collision>,
}

/// Sampler for the length of collision-free batches in a population of fixed
/// size `n`.
///
/// Caches the population-dependent constants of the birthday-process survival
/// function so that each draw costs only a couple of [`ln_factorial`]
/// evaluations (the inversion starts from a closed-form approximation and
/// walks at most a few steps).
#[derive(Debug, Clone)]
pub struct CollisionSampler {
    n: u64,
    t_max: u64,
    ln_fact_n: f64,
    /// `ln(n (n-1))` — the per-interaction denominator.
    ln_pair: f64,
}

impl CollisionSampler {
    /// Create a sampler for populations of `n` agents.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    #[must_use]
    pub fn new(n: u64) -> Self {
        assert!(n >= 2, "the birthday process needs at least two agents");
        CollisionSampler {
            n,
            t_max: n / 2, // after t_max clean interactions a collision is forced
            ln_fact_n: ln_factorial(n),
            ln_pair: (n as f64).ln() + (n as f64 - 1.0).ln(),
        }
    }

    /// `ln P(first 2t agent draws are pairwise distinct)`:
    /// `ln [ n! / (n-2t)! / (n^t (n-1)^t) ]` (within each interaction the two
    /// agents are distinct by construction, hence the `n(n-1)` denominator).
    ///
    /// Short prefixes are summed as exact log-ratios
    /// `Σ_j ln(1 − 2j/n) + ln(1 − 2j/(n−1))`: the factorial form cancels two
    /// `~n ln n`-sized terms, whose ulp-scale residue (`~10⁻⁸`) dwarfs the
    /// true value `O(−t²/n)` for small `t` at large `n`.  Uncorrected, the
    /// residue can make `ln Q(1)` negative — but `Q(1) = 1` *exactly* (the
    /// two agents of one interaction are distinct by construction), and a
    /// draw landing in that phantom gap would announce a collision in a
    /// block's first interaction and send mass-accounting off a cliff (once
    /// per ~10⁸ blocks: invisible in short runs, certain in the multi-billion
    /// interaction counting experiments).  The sum form makes `ln Q(1) = 0`
    /// exact and the whole small-`t` region accurate to full precision.
    fn ln_no_collision(&self, t: u64) -> f64 {
        debug_assert!(2 * t <= self.n);
        if t <= 32 {
            let nf = self.n as f64;
            let mut acc = 0.0;
            for j in 1..t {
                let jf = (2 * j) as f64;
                acc += (-jf / nf).ln_1p() + (-jf / (nf - 1.0)).ln_1p();
            }
            return acc;
        }
        self.ln_fact_n - ln_factorial(self.n - 2 * t) - t as f64 * self.ln_pair
    }

    /// Sample how many interactions the next collision-free batch contains.
    ///
    /// Simulates — in expected `O(1)` time — the prefix of the sequential
    /// schedule up to the first interaction that re-uses an agent: `clean`
    /// interactions touch `2·clean` pairwise-distinct agents, then (unless the
    /// caller's `cap` truncates the batch first) one further interaction
    /// involves at least one agent that already interacted, as described by
    /// [`Collision`].
    ///
    /// `cap` bounds the number of interactions the caller is willing to
    /// execute in this batch (budget/check-granularity); the returned batch
    /// satisfies `clean + collision.is_some() as u64 <= cap`.
    ///
    /// # Panics
    ///
    /// Panics if `cap == 0`.
    pub fn sample(&self, rng: &mut SmallRng, cap: u64) -> BatchDraw {
        assert!(cap > 0, "an empty batch is meaningless");

        // Invert the survival function: T = min { t : Q(t) < u } is the index
        // of the first interaction containing a repeated agent; equivalently,
        // find the largest t with ln Q(t) >= ln u.
        let u: f64 = rng.gen();
        let ln_u = u.max(f64::MIN_POSITIVE).ln();

        // Second-order approximation ln Q(t) ≈ -(2t² - t)/n gives the starting
        // guess t ≈ (1 + sqrt(1 - 8 n ln u)) / 4; the exact survival function
        // deviates from it only by O(t³/n²) ~ O(1/√n) at the birthday scale,
        // so the subsequent exact walk almost always takes 0–2 steps.
        let nf = self.n as f64;
        let guess = ((1.0 + (1.0 - 8.0 * nf * ln_u).sqrt()) / 4.0) as u64;
        let mut t = guess.min(self.t_max);
        while self.ln_no_collision(t) < ln_u {
            t -= 1; // terminates: ln Q(0) = 0 >= ln_u
        }
        while t < self.t_max && self.ln_no_collision(t + 1) >= ln_u {
            t += 1;
        }
        let first_collision_at = t + 1; // interaction index of the collision

        if first_collision_at > cap {
            // The whole cap-limited batch is clean; the collision (if any)
            // lies beyond what we execute now and is resampled fresh next
            // batch.
            return BatchDraw {
                clean: cap,
                collision: None,
            };
        }

        let clean = first_collision_at - 1;
        let r = 2 * clean; // agents already used when the collision happens
        debug_assert!(r >= 1, "a collision cannot happen in the first interaction");

        // Conditioned on "interaction clean+1 collides", decide where:
        //   a = P(initiator is a used agent)                = r/n
        //   b = P(initiator new, responder used)            = (n-r)/n * r/(n-1)
        let r_f = r as f64;
        let a = r_f / nf;
        let b = (nf - r_f) / nf * r_f / (nf - 1.0);
        let initiator_used = rng.gen::<f64>() * (a + b) < a;
        let responder_used = if initiator_used {
            // Responder is uniform over the n-1 agents other than the
            // initiator, r-1 of which are used.
            rng.gen::<f64>() * (nf - 1.0) < r_f - 1.0
        } else {
            true
        };
        BatchDraw {
            clean,
            collision: Some(Collision {
                initiator_used,
                responder_used,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded_rng;

    #[test]
    fn ln_factorial_is_consistent() {
        assert_eq!(ln_factorial(0), 0.0);
        assert_eq!(ln_factorial(1), 0.0);
        let mut direct = 0.0f64;
        for n in 2..50u64 {
            direct += (n as f64).ln();
            assert!((ln_factorial(n) - direct).abs() < 1e-9, "n = {n}");
        }
    }

    #[test]
    fn hypergeometric_degenerate_cases() {
        let mut rng = seeded_rng(1);
        assert_eq!(hypergeometric(&mut rng, 10, 4, 0), 0);
        assert_eq!(hypergeometric(&mut rng, 10, 0, 7), 0);
        assert_eq!(hypergeometric(&mut rng, 10, 10, 7), 7);
        assert_eq!(hypergeometric(&mut rng, 10, 4, 10), 4);
        // Forced support: drawing 9 of 10 with 4 successes must hit [3, 4].
        for _ in 0..100 {
            let k = hypergeometric(&mut rng, 10, 4, 9);
            assert!((3..=4).contains(&k));
        }
    }

    #[test]
    #[should_panic(expected = "cannot draw")]
    fn hypergeometric_rejects_draws_beyond_population() {
        let mut rng = seeded_rng(1);
        let _ = hypergeometric(&mut rng, 10, 4, 11);
    }

    #[test]
    fn hypergeometric_mean_and_range_are_correct() {
        let mut rng = seeded_rng(42);
        let (total, success, draws) = (1000u64, 300u64, 50u64);
        let trials = 20_000;
        let mut sum = 0u64;
        for _ in 0..trials {
            let k = hypergeometric(&mut rng, total, success, draws);
            assert!(k <= draws && k <= success);
            sum += k;
        }
        let mean = sum as f64 / trials as f64;
        let expected = draws as f64 * success as f64 / total as f64; // 15
                                                                     // σ ≈ 3.2, standard error ≈ 0.023: a ±0.15 window is ~6σ of the mean.
        assert!(
            (mean - expected).abs() < 0.15,
            "empirical mean {mean:.3} too far from {expected}"
        );
    }

    #[test]
    fn hypergeometric_matches_exact_pmf() {
        // Chi-squared-style check against exactly computed probabilities.
        let (total, success, draws) = (30u64, 12u64, 10u64);
        let mut rng = seeded_rng(7);
        let trials = 50_000usize;
        let mut counts = vec![0u32; draws as usize + 1];
        for _ in 0..trials {
            counts[hypergeometric(&mut rng, total, success, draws) as usize] += 1;
        }
        for k in 0..=draws {
            let ln_p = ln_choose(success, k.min(success)) + ln_choose(total - success, draws - k)
                - ln_choose(total, draws);
            let p = if k <= success && draws - k <= total - success {
                ln_p.exp()
            } else {
                0.0
            };
            let expected = p * trials as f64;
            let got = f64::from(counts[k as usize]);
            // Allow 5 sigma plus a small absolute slack for tiny bins.
            let sigma = (expected.max(1.0)).sqrt();
            assert!(
                (got - expected).abs() < 5.0 * sigma + 3.0,
                "k = {k}: got {got}, expected {expected:.1}"
            );
        }
    }

    #[test]
    fn multivariate_hypergeometric_sums_and_bounds() {
        let mut rng = seeded_rng(3);
        let counts = vec![5u64, 0, 17, 3, 0, 25];
        // Unsorted, and listing the two zero-count states.
        let occupied = [2u32, 1, 0, 5, 4, 3];
        for draws in [0u64, 1, 10, 50] {
            let mut out = Vec::new();
            multivariate_hypergeometric_sparse(&mut rng, &counts, &occupied, 50, draws, &mut out);
            assert_eq!(out.iter().map(|&(_, k)| k).sum::<u64>(), draws);
            for &(s, k) in &out {
                assert!(
                    k > 0 && k <= counts[s as usize],
                    "class over-drawn: {out:?} from {counts:?}"
                );
            }
        }
    }

    #[test]
    fn multivariate_hypergeometric_single_class() {
        // One occupied class: everything must come from it.
        let mut rng = seeded_rng(5);
        let mut out = Vec::new();
        multivariate_hypergeometric_sparse(&mut rng, &[0, 9], &[0, 1], 9, 6, &mut out);
        assert_eq!(out, vec![(1, 6)]);
    }

    #[test]
    fn multivariate_marginals_match_univariate_mean() {
        let mut rng = seeded_rng(11);
        let counts = vec![40u64, 0, 60, 100];
        let occupied = [0u32, 1, 2, 3];
        let draws = 30u64;
        let trials = 20_000;
        let mut sums = [0u64; 4];
        let mut out = Vec::new();
        for _ in 0..trials {
            multivariate_hypergeometric_sparse(&mut rng, &counts, &occupied, 200, draws, &mut out);
            for &(s, k) in &out {
                sums[s as usize] += k;
            }
        }
        for (i, &c) in counts.iter().enumerate() {
            let mean = sums[i] as f64 / trials as f64;
            let expected = draws as f64 * c as f64 / 200.0;
            assert!(
                (mean - expected).abs() < 0.2,
                "class {i}: mean {mean:.2} vs expected {expected:.2}"
            );
        }
    }

    #[test]
    fn no_collision_prefix_probabilities_are_exact_for_short_prefixes() {
        // Q(1) = 1 exactly: the two agents of one interaction are distinct by
        // construction.  The factorial form's cancellation used to leave this
        // at ~±1e-8, occasionally announcing a collision in a block's first
        // interaction (observed as a crash after ~10¹⁰ interactions at
        // n = 10⁶).
        for &n in &[2u64, 3, 1000, 1_000_000, 1_000_000_000] {
            let s = CollisionSampler::new(n);
            assert_eq!(s.ln_no_collision(0), 0.0, "ln Q(0) at n = {n}");
            if n >= 2 {
                assert_eq!(s.ln_no_collision(1), 0.0, "ln Q(1) at n = {n}");
            }
            // Small prefixes match the exact product to full precision.
            let nf = n as f64;
            let mut exact = 0.0f64;
            for t in 2..=(n / 2).min(8) {
                let j = 2 * (t - 1);
                exact += (1.0 - j as f64 / nf).ln() + (1.0 - j as f64 / (nf - 1.0)).ln();
                let got = s.ln_no_collision(t);
                // The reference product uses plain ln(1 − x), itself good to
                // ~1e-11 relative at these magnitudes.
                assert!(
                    (got - exact).abs() <= 1e-9 * exact.abs() + 1e-15,
                    "ln Q({t}) at n = {n}: got {got:e}, exact {exact:e}"
                );
            }
        }
    }

    #[test]
    fn no_collision_prefix_forms_agree_at_the_crossover() {
        // The ln_1p sum (t ≤ 32) and the factorial form (t > 32) must agree
        // where they meet, up to the factorial form's ulp-scale noise.
        for &n in &[10_000u64, 1_000_000, 100_000_000] {
            let s = CollisionSampler::new(n);
            for t in 28..=40u64 {
                let sum_form = {
                    let nf = n as f64;
                    let mut acc = 0.0;
                    for j in 1..t {
                        let jf = (2 * j) as f64;
                        acc += (-jf / nf).ln_1p() + (-jf / (nf - 1.0)).ln_1p();
                    }
                    acc
                };
                let got = s.ln_no_collision(t);
                assert!(
                    (got - sum_form).abs() < 1e-6,
                    "forms disagree at n = {n}, t = {t}: {got:e} vs {sum_form:e}"
                );
            }
        }
    }

    #[test]
    fn collision_batches_are_capped_and_well_formed() {
        let mut rng = seeded_rng(17);
        for &n in &[2u64, 3, 10, 1000] {
            let sampler = CollisionSampler::new(n);
            for _ in 0..200 {
                let draw = sampler.sample(&mut rng, 64);
                let executed = draw.clean + u64::from(draw.collision.is_some());
                assert!(executed <= 64);
                assert!(draw.clean <= n / 2);
                if let Some(c) = draw.collision {
                    assert!(c.initiator_used || c.responder_used);
                    assert!(
                        draw.clean >= 1,
                        "no collision is possible in the first interaction"
                    );
                }
            }
        }
    }

    #[test]
    fn collision_time_matches_birthday_statistics() {
        // Each interaction draws two agents, so the first repeated agent
        // appears after ≈ sqrt(pi n / 2) agent draws, i.e. the first colliding
        // interaction has index T ≈ sqrt(pi n / 2) / 2 for large n.
        let n = 10_000u64;
        let mut rng = seeded_rng(23);
        let trials = 2_000;
        let mut total_t = 0u64;
        let sampler = CollisionSampler::new(n);
        for _ in 0..trials {
            let draw = sampler.sample(&mut rng, u64::MAX);
            assert!(
                draw.collision.is_some(),
                "uncapped batches must end in a collision"
            );
            total_t += draw.clean + 1; // index of the colliding interaction
        }
        let mean = total_t as f64 / trials as f64;
        let expected = (std::f64::consts::PI * n as f64 / 2.0).sqrt() / 2.0; // ≈ 62.7
        assert!(
            (mean - expected).abs() < 0.05 * expected,
            "mean collision index {mean:.1} deviates from birthday expectation {expected:.1}"
        );
    }

    #[test]
    fn hypergeometric_rejection_path_matches_exact_pmf() {
        // σ ≈ 126 > REJECTION_SIGMA: exercises the log-concave rejection
        // sampler, with a per-bin comparison against the exact pmf.
        let (total, success, draws) = (300_000u64, 120_000u64, 100_000u64);
        let sigma = (draws as f64 * 0.4 * 0.6 * (200_000.0 / 299_999.0)).sqrt();
        assert!(sigma > REJECTION_SIGMA, "test must hit the rejection path");
        let mut rng = seeded_rng(53);
        let trials = 100_000usize;
        let mut counts = vec![0u32; draws as usize + 1];
        for _ in 0..trials {
            counts[hypergeometric(&mut rng, total, success, draws) as usize] += 1;
        }
        // Compare every bin within ±5σ of the mean against the exact pmf.
        let mean = draws as f64 * success as f64 / total as f64; // 40000
        let lo = (mean - 5.0 * sigma) as u64;
        let hi = (mean + 5.0 * sigma) as u64;
        for k in lo..=hi {
            let expected = ln_pmf_hypergeometric(total, success, draws, k).exp() * trials as f64;
            let got = f64::from(counts[k as usize]);
            let noise = expected.max(1.0).sqrt();
            assert!(
                (got - expected).abs() < 5.0 * noise + 3.0,
                "k = {k}: got {got}, expected {expected:.1}"
            );
        }
        // And the tails hold everything else (no mass leaked out of range).
        let in_range: u32 = (lo..=hi).map(|k| counts[k as usize]).sum();
        assert!(trials as u32 - in_range < (trials / 1000) as u32);
    }

    #[test]
    fn hypergeometric_rejection_path_large_parameters() {
        // Population-scale draws (σ ≈ 111): mean and variance must match.
        let (total, success, draws) = (10_000_000u64, 3_000_000u64, 100_000u64);
        let mut rng = seeded_rng(59);
        let trials = 20_000;
        let (mut sum, mut sum_sq) = (0f64, 0f64);
        for _ in 0..trials {
            let k = hypergeometric(&mut rng, total, success, draws) as f64;
            sum += k;
            sum_sq += k * k;
        }
        let mean = sum / f64::from(trials);
        let var = sum_sq / f64::from(trials) - mean * mean;
        let expected_mean = 30_000.0;
        let expected_var = draws as f64 * 0.3 * 0.7 * (9_900_000.0 / 9_999_999.0); // ≈ 20790
        let se_mean = (expected_var / f64::from(trials)).sqrt(); // ≈ 1.02
        assert!(
            (mean - expected_mean).abs() < 6.0 * se_mean,
            "empirical mean {mean:.2} too far from {expected_mean}"
        );
        assert!(
            (var - expected_var).abs() < 0.05 * expected_var,
            "empirical variance {var:.0} too far from {expected_var:.0}"
        );
    }

    #[test]
    fn binomial_rejection_path_matches_exact_pmf() {
        // σ ≈ 117 > REJECTION_SIGMA: per-bin check on the rejection path.
        let (trials_per_draw, p) = (60_000u64, 0.35f64);
        assert!((trials_per_draw as f64 * p * (1.0 - p)).sqrt() > REJECTION_SIGMA);
        let mut rng = seeded_rng(61);
        let draws = 100_000usize;
        let mut counts = vec![0u32; trials_per_draw as usize + 1];
        for _ in 0..draws {
            counts[binomial(&mut rng, trials_per_draw, p) as usize] += 1;
        }
        let sigma = (trials_per_draw as f64 * p * (1.0 - p)).sqrt();
        let mean = trials_per_draw as f64 * p;
        for k in (mean - 5.0 * sigma) as u64..=(mean + 5.0 * sigma) as u64 {
            let ln_pmf = ln_choose(trials_per_draw, k)
                + k as f64 * p.ln()
                + (trials_per_draw - k) as f64 * (1.0 - p).ln();
            let expected = ln_pmf.exp() * draws as f64;
            let got = f64::from(counts[k as usize]);
            let noise = expected.max(1.0).sqrt();
            assert!(
                (got - expected).abs() < 5.0 * noise + 3.0,
                "k = {k}: got {got}, expected {expected:.1}"
            );
        }
    }

    #[test]
    fn binomial_degenerate_cases() {
        let mut rng = seeded_rng(31);
        assert_eq!(binomial(&mut rng, 0, 0.5), 0);
        assert_eq!(binomial(&mut rng, 10, 0.0), 0);
        assert_eq!(binomial(&mut rng, 10, 1.0), 10);
        for _ in 0..200 {
            let k = binomial(&mut rng, 7, 0.3);
            assert!(k <= 7);
        }
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn binomial_rejects_invalid_probability() {
        let mut rng = seeded_rng(31);
        let _ = binomial(&mut rng, 10, 1.5);
    }

    #[test]
    fn binomial_mean_and_variance_are_correct() {
        let mut rng = seeded_rng(37);
        let (trials_per_draw, p) = (1000u64, 0.37f64);
        let draws = 20_000;
        let mut sum = 0u64;
        let mut sum_sq = 0f64;
        for _ in 0..draws {
            let k = binomial(&mut rng, trials_per_draw, p);
            sum += k;
            sum_sq += (k as f64) * (k as f64);
        }
        let mean = sum as f64 / draws as f64;
        let expected_mean = trials_per_draw as f64 * p; // 370
        let var = sum_sq / draws as f64 - mean * mean;
        let expected_var = trials_per_draw as f64 * p * (1.0 - p); // 233.1
                                                                   // σ ≈ 15.3, standard error of the mean ≈ 0.108: ±0.6 is ~5.5σ.
        assert!(
            (mean - expected_mean).abs() < 0.6,
            "empirical mean {mean:.2} too far from {expected_mean}"
        );
        assert!(
            (var - expected_var).abs() < 0.1 * expected_var,
            "empirical variance {var:.1} too far from {expected_var:.1}"
        );
    }

    #[test]
    fn binomial_matches_exact_pmf() {
        let (trials_per_draw, p) = (40u64, 0.25f64);
        let mut rng = seeded_rng(41);
        let draws = 50_000usize;
        let mut counts = vec![0u32; trials_per_draw as usize + 1];
        for _ in 0..draws {
            counts[binomial(&mut rng, trials_per_draw, p) as usize] += 1;
        }
        for k in 0..=trials_per_draw {
            let ln_pmf = ln_choose(trials_per_draw, k)
                + k as f64 * p.ln()
                + (trials_per_draw - k) as f64 * (1.0 - p).ln();
            let expected = ln_pmf.exp() * draws as f64;
            let got = f64::from(counts[k as usize]);
            let sigma = expected.max(1.0).sqrt();
            assert!(
                (got - expected).abs() < 5.0 * sigma + 3.0,
                "k = {k}: got {got}, expected {expected:.1}"
            );
        }
    }

    #[test]
    fn multinomial_sums_and_respects_zero_weights() {
        let mut rng = seeded_rng(43);
        let weights: Vec<u128> = vec![10, 0, 30, 60, 0];
        let mut out = Vec::new();
        for trials in [0u64, 1, 17, 5000] {
            multinomial(&mut rng, trials, &weights, &mut out);
            assert_eq!(out.len(), weights.len());
            assert_eq!(out.iter().sum::<u64>(), trials);
            assert_eq!(out[1], 0);
            assert_eq!(out[4], 0);
        }
    }

    #[test]
    fn multinomial_marginals_match_weights() {
        let mut rng = seeded_rng(47);
        // Weights at the sharded engine's scale: pair counts of 10⁹ agents.
        let weights: Vec<u128> = vec![250_000_000_000_000_000, 750_000_000_000_000_000];
        let trials_per_draw = 10_000u64;
        let draws = 2_000;
        let mut sums = [0u64; 2];
        let mut out = Vec::new();
        for _ in 0..draws {
            multinomial(&mut rng, trials_per_draw, &weights, &mut out);
            sums[0] += out[0];
            sums[1] += out[1];
        }
        let mean0 = sums[0] as f64 / draws as f64;
        // Expected 2500, σ ≈ 43.3, standard error ≈ 0.97: ±5 is ~5σ.
        assert!(
            (mean0 - 2500.0).abs() < 5.0,
            "category 0 mean {mean0:.1} too far from 2500"
        );
    }

    #[test]
    #[should_panic(expected = "all-zero weights")]
    fn multinomial_rejects_all_zero_weights() {
        let mut rng = seeded_rng(47);
        let mut out = Vec::new();
        multinomial(&mut rng, 5, &[0, 0], &mut out);
    }

    #[test]
    fn tiny_populations_always_terminate() {
        let mut rng = seeded_rng(29);
        let sampler = CollisionSampler::new(2);
        for _ in 0..500 {
            let draw = sampler.sample(&mut rng, 10);
            // With n = 2 the single clean interaction uses both agents; the
            // second interaction always collides.
            assert!(draw.clean <= 1);
        }
    }
}
