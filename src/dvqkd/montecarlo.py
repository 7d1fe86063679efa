"""Event-level Monte Carlo oracle for every analytic per-pulse statistic.

Each pulse is simulated photon by photon: source emission, loss, bath or
pre-channel noise coupling, polarization routing, depolarization flips,
heralding and dark counts.  Two detection geometries are supported: the
polarization-resolving key-generation setup ("key": accepted events, errors,
single-photon fraction) and the 50:50 autocorrelation setup ("autocorr":
single/coincidence/no-click probabilities and photon-arrival statistics).

Sampling is split into fixed-size blocks, each seeded from (seed, block
index), so results are bit-identical however the blocks are distributed
over workers.  Up to two blocks are sampled at once, the second on a thread
``simulate`` starts and joins itself, when the process may use two CPUs;
the counts are summed by block index in the calling thread, so the results
do not depend on this.  Dark counts follow the channel models' accounting: they
decide an event only when no real photon reached the detectors, which is
the leading-order regime the analytic expressions encode.

A draw is skipped only where skipping it moves no other draw, so every
seeded stream is the one that drawing every random number of the full arrays
gives: a thinning calls numpy's binomial only on nonzero counts (for a zero
count it draws nothing anyway), and at d = 0 the dark counts, the last draws
of a key block, are not drawn.
"""

from __future__ import annotations

import math
import operator
import os
import threading
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from types import SimpleNamespace

import numpy as np

from . import channel
from . import photon_stats as ps
from .errors import ParameterDomainError

KEY = "key"
AUTOCORR = "autocorr"

_BLOCK = 1 << 16

# Blocks in flight at once, the calling thread's included.  numpy's draws and
# ufunc loops release the GIL, so on a 2-vCPU host two workers sampled 1.7x as
# many pulses per second as one (the mc benchmark: 1.86e7 against 1.07e7).
# Each worker in flight holds one block's arrays (below 2.25 MiB, pinned by a
# tier-1 test) and its thread's malloc arena: mc peak RSS rose from 40.6 to
# 43.5 MB with the second worker.  A third would add as much again, and gains
# nothing where the process may use two CPUs.
_MAX_WORKERS = 2

# the pair-count quantile table holds about nu + 40 sqrt(nu) entries
NU_MAX = 1e4


@dataclass(frozen=True)
class McConfig:
    samples: int = 1_000_000
    seed: int = 0

    def __post_init__(self) -> None:
        _check_integer("samples", self.samples, least=1)
        _check_integer("seed", self.seed, least=0)


def _check_integer(name: str, value, least: int) -> None:
    try:
        ok = operator.index(value) >= least
    except TypeError:
        ok = False
    if not ok:
        raise ParameterDomainError(f"{name} must be an integer >= {least}, got {value!r}")


@dataclass(frozen=True)
class McEstimate:
    value: float
    std_err: float
    samples: int


def _bernoulli_estimate(count: int, n: int) -> McEstimate:
    v = count / n
    return McEstimate(value=v, std_err=math.sqrt(max(v * (1.0 - v), 0.0) / n), samples=n)


def _sample_noise(rng: np.random.Generator, dist: ps.PhotonDistribution, n: int) -> np.ndarray:
    if dist.mean == 0.0:
        return np.zeros(n, dtype=np.int64)
    if dist.kind == ps.THERMAL:
        counts = rng.geometric(1.0 / (1.0 + dist.mean), size=n)
        counts -= 1
        return counts
    return rng.poisson(dist.mean, size=n)


def _thin(rng: np.random.Generator, counts: np.ndarray, keep, out=None) -> np.ndarray:
    """``rng.binomial(counts, keep)``, called on the nonzero counts alone.

    numpy draws nothing for a zero count, so the stream is the full call's;
    an array ``keep`` is taken at the same elements.  The result goes to a
    new array, or with ``out=counts`` over the counts themselves.
    """
    kept = np.zeros_like(counts) if out is None else out
    some = np.flatnonzero(counts > 0)  # a bool mask: flatnonzero on int64 is slower
    kept[some] = rng.binomial(counts[some], keep if np.ndim(keep) == 0 else keep[some])
    return kept


def _thinned_noise(
    rng: np.random.Generator, dist: ps.PhotonDistribution, n: int, keep
) -> np.ndarray:
    """Noise photons of n pulses, each kept with probability ``keep``."""
    counts = _sample_noise(rng, dist, n)
    return _thin(rng, counts, keep, out=counts)


def _counts(**indicators: np.ndarray) -> dict[str, int]:
    """How many pulses of a block each indicator marks, named by the estimate it feeds."""
    return {name: int(np.count_nonzero(marks)) for name, marks in indicators.items()}


def simulate(params, config: McConfig, target: str = KEY) -> dict[str, McEstimate]:
    """Monte Carlo estimates of the per-pulse statistics of one channel model.

    In this order, key geometry returns p_exp and qber (qber only when some
    event is accepted), then p_exp_signal, p_exp_noise, p_exp_noise_signal and
    p_exp_dark for noise before the channel, or p_multi and y for the heralded
    source; autocorrelation geometry returns p_single, p_coincidence, p_none,
    omega1 and omega2plus.
    """
    if target not in (KEY, AUTOCORR):
        raise ParameterDomainError(f"unknown target geometry: {target!r}")
    signal, block = _BLOCKS[channel.model(params).name]
    if signal is _heralded_pairs:
        if not 0.0 < params.nu <= NU_MAX:
            raise ParameterDomainError(
                f"spdc Monte Carlo needs a pair mean nu in (0, {NU_MAX:g}], got {params.nu:g}"
            )
        _minus_upper_tail(params.nu)  # the quantile table, built here once and not per worker
    starts = range(0, config.samples, _BLOCK)

    def run(block_index: int) -> dict[str, int]:
        rng = np.random.default_rng([config.seed, block_index])
        n = min(_BLOCK, config.samples - starts[block_index])
        return block(rng, params, n, target, signal)

    counts = Counter()
    for block_counts in _map_blocks(run, len(starts)):
        counts.update(block_counts)
    return _assemble(counts, config.samples)


def _worker_count() -> int:
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(_MAX_WORKERS, cpus)


def _map_blocks(run, blocks: int) -> list:
    """``[run(i) for i in range(blocks)]``, on up to ``_worker_count()`` workers.

    The calling thread is one worker and starts and joins the others.  Blocks
    are claimed in index order, and none after a block has raised, so every
    block below a failing one has run: the lowest-index failure is raised,
    as the serial loop would raise it.
    """
    workers = min(_worker_count(), blocks)
    if workers < 2:
        return [run(i) for i in range(blocks)]
    results = [None] * blocks
    failures: dict[int, BaseException] = {}
    lock = threading.Lock()
    unclaimed = iter(range(blocks))

    def drain() -> None:
        while True:
            with lock:
                i = None if failures else next(unclaimed, None)
            if i is None:
                return
            try:
                results[i] = run(i)
            except BaseException as exc:  # raised again in the calling thread
                with lock:
                    failures[i] = exc
                return

    helpers = [threading.Thread(target=drain, daemon=True) for _ in range(workers - 1)]
    for helper in helpers:
        helper.start()
    try:
        drain()
    finally:
        for helper in helpers:
            helper.join()
    if failures:
        raise failures[min(failures)]
    return results


def _assemble(counts: Counter, n: int) -> dict[str, McEstimate]:
    """Estimates of every counted statistic, in the order the blocks count them.

    Each is a fraction of all samples except qber, a fraction of the accepted
    events, left out when there are none; ``multi_and_accepted`` only feeds y.
    """
    out = {}
    for name, count in counts.items():
        total = counts["p_exp"] if name == "qber" else n
        if name != "multi_and_accepted" and total > 0:
            out[name] = _bernoulli_estimate(count, total)
    if "p_multi" in counts:
        out["y"] = _ratio_estimate(
            multi=counts["p_multi"], acc=counts["p_exp"], both=counts["multi_and_accepted"], n=n
        )
    return out


def _ratio_estimate(multi: int, acc: int, both: int, n: int) -> McEstimate:
    """y = max(0, 1 - p_multi / p_exp) with a delta-method standard error."""
    m = multi / n
    a = acc / n
    if a == 0.0:
        return McEstimate(value=0.0, std_err=0.0, samples=n)
    f = m / a
    cov = both / n - m * a
    var_f = (f * f) * (
        (m * (1.0 - m)) / (m * m if m > 0 else 1.0)
        + (a * (1.0 - a)) / (a * a)
        - 2.0 * cov / (m * a if m > 0 else 1.0)
    ) / n
    return McEstimate(value=max(0.0, 1.0 - f), std_err=math.sqrt(max(var_f, 0.0)), samples=n)


def _depolarization_flips(rng: np.random.Generator, e: float, n: int) -> np.ndarray:
    # mixing in the fully depolarized state flips the measured bit half the time
    return rng.random(n) < 0.5 * e


def _key_clicks(
    rng: np.random.Generator,
    n: int,
    signal_arrives: np.ndarray,
    flipped: np.ndarray,
    right_noisy: np.ndarray,
    wrong_noisy: np.ndarray,
    d: float,
) -> tuple[np.ndarray, np.ndarray]:
    """(accepted, erroneous) pulse indicators: exactly one detector clicks, the wrong one.

    ``right_noisy`` and ``wrong_noisy`` mark the pulses where noise photons
    reach the right and the wrong detector.
    """
    signal_right = signal_arrives & ~flipped
    signal_wrong = signal_arrives & flipped
    real_right = signal_right | right_noisy
    real_wrong = signal_wrong | wrong_noisy
    click_right, click_wrong = real_right, real_wrong
    if d > 0.0:  # at d = 0 no dark count clicks, and these are the block's last draws
        any_real = real_right | real_wrong
        click_right = real_right | (~any_real & (rng.random(n) < d))
        click_wrong = real_wrong | (~any_real & (rng.random(n) < d))
    accepted = click_right ^ click_wrong
    return accepted, accepted & click_wrong


def _autocorr_clicks(rng: np.random.Generator, arrivals: np.ndarray) -> dict[str, int]:
    """Click counts of the 50:50 splitter, from the pulses some photon reached.

    Splitting draws nothing for a pulse no photon reached, and such a pulse
    clicks neither detector; a reached pulse clicks both exactly when each
    side gets some of its photons.
    """
    reached = arrivals[arrivals > 0]
    at_a = rng.binomial(reached, 0.5)  # numpy draws nothing for the zero counts left out
    both = int(np.count_nonzero((at_a >= 1) & (at_a < reached)))
    single_photon = int(np.count_nonzero(reached == 1))
    return {
        "p_single": reached.size - both,
        "p_coincidence": both,
        "p_none": arrivals.size - reached.size,
        "omega1": single_photon,
        "omega2plus": reached.size - single_photon,
    }


def _single_photon(rng: np.random.Generator, params, n: int) -> tuple[np.ndarray, None]:
    """Whether the photon a source emits with probability p reaches Bob."""
    emitted = rng.random(n) < params.p
    return emitted & (rng.random(n) < params.T), None


@lru_cache(maxsize=16)
def _minus_upper_tail(nu: float) -> np.ndarray:
    """-P(N > k) for N ~ Poisson(nu) and k = 0, 1, ...: a cached, read-only, ascending table.

    The table runs 40 standard deviations past the mean, and the upper tails
    are summed from the top down so that no entry is a difference.
    """
    k = np.arange(int(nu + 40.0 * math.sqrt(nu) + 60.0))
    log_fact = np.array([math.lgamma(j + 1.0) for j in range(k.size)])
    pmf = np.exp(k * math.log(nu) - nu - log_fact)
    table = -np.append(np.cumsum(pmf[:0:-1])[::-1], 0.0)
    table.setflags(write=False)
    return table


def _poisson_ppf(u: np.ndarray, nu: float) -> np.ndarray:
    """Smallest k with P(N <= k) >= u for N ~ Poisson(nu), by table lookup.

    k counts the entries with P(N > k) > 1 - u.  Two comparisons settle k = 0
    and k = 1, where at least 1 - nu/2 of the herald-conditioned draws land;
    only the draws with P(N > 1) > 1 - u are searched.
    """
    table = _minus_upper_tail(nu)
    x = u - 1.0  # -(1 - u) to the bit: rounding to nearest is symmetric in sign
    k = (table[0] < x).astype(np.intp)
    deep = np.flatnonzero(table[1] < x)
    k[deep] = np.searchsorted(table, x[deep])
    return k


# the Poisson law pair counts are drawn from, through its quantile function
_poisson = SimpleNamespace(ppf=_poisson_ppf)


def _heralded_pairs(rng: np.random.Generator, params, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Signal photons reaching Bob from a heralded pulse, and which pulses held >= 2 pairs.

    Pair counts are drawn conditioned on the ideal herald (at least one pair), for
    a pair mean that ``simulate`` has checked.
    """
    p0 = math.exp(-params.nu)
    u = rng.random(n)
    u *= 1.0 - p0
    u += p0
    # keep strictly above the vacuum mass and below 1, where the quantile is unbounded
    np.maximum(u, np.nextafter(p0, 1.0), out=u)
    np.minimum(u, np.nextafter(1.0, 0.0), out=u)
    pairs = _poisson.ppf(u, params.nu)
    del u
    return rng.binomial(pairs, params.T), pairs >= 2  # pairs >= 1: no zero count to skip


# The blocks below free each full-length array as soon as no count needs it:
# every worker in flight holds one block's working set.

def _block_bath(rng: np.random.Generator, params, n: int, target: str, signal) -> dict[str, int]:
    arriving, multi = signal(rng, params, n)
    bath = params.bath()
    # bath photons couple into Bob's path through the reflected (1-T) port
    right = _thinned_noise(rng, bath, n, 1.0 - params.T)
    if target == AUTOCORR:
        arrivals = right
        arrivals += arriving
        del arriving
        arrivals += _thinned_noise(rng, bath, n, 1.0 - params.T)
        return _autocorr_clicks(rng, arrivals)
    signal_arrives = arriving >= 1
    del arriving
    right_noisy = right >= 1
    del right
    wrong_noisy = _thinned_noise(rng, bath, n, 1.0 - params.T) >= 1
    flipped = _depolarization_flips(rng, params.e, n)
    accepted, error = _key_clicks(
        rng, n, signal_arrives, flipped, right_noisy, wrong_noisy, params.d
    )
    if multi is None:
        return _counts(p_exp=accepted, qber=error)
    return _counts(p_exp=accepted, qber=error, p_multi=multi, multi_and_accepted=multi & accepted)


def _block_noise_before(
    rng: np.random.Generator, params, n: int, target: str, signal
) -> dict[str, int]:
    transmitted, _ = signal(rng, params, n)
    survivors = _thinned_noise(rng, params.noise(), n, params.T)
    if target == AUTOCORR:
        survivors += transmitted
        return _autocorr_clicks(rng, survivors)
    # one random polarization per noise pulse; the relative phase never
    # enters any routing probability but is drawn to mirror the state
    x = rng.random(n)
    rng.random(n)  # phase
    at_right = _thin(rng, survivors, x)
    del x
    noisy = survivors >= 1
    right_noisy = at_right >= 1
    wrong_noisy = at_right < survivors  # survivors - at_right >= 1
    del survivors, at_right
    flipped = _depolarization_flips(rng, params.e, n)
    accepted, error = _key_clicks(rng, n, transmitted, flipped, right_noisy, wrong_noisy, params.d)
    return _counts(
        p_exp=accepted,
        qber=error,
        p_exp_signal=accepted & transmitted & ~noisy,
        p_exp_noise=accepted & ~transmitted & noisy,
        p_exp_noise_signal=accepted & transmitted & noisy,
        p_exp_dark=accepted & ~transmitted & ~noisy,
    )


# registry name -> (signal sampler, noise coupling); the draw order of every
# block is fixed, so seeded streams stay reproducible
_BLOCKS = {
    "thermal-bath": (_single_photon, _block_bath),
    "noise-before": (_single_photon, _block_noise_before),
    "spdc": (_heralded_pairs, _block_bath),
}
