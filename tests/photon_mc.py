"""Photon-by-photon sampler of the detection chain: the tests' reference for
`counting._window_pmf` and the multinomial Monte Carlo built on it.

It samples the per-window model of `pairsource.counting` directly: each
emitted pair draws its splitter outcome, both detections and the
interference veto, and dark clicks and the gate are applied per window.
"""

from math import exp, factorial

import numpy as np

from pairsource.counting import MAX_PAIRS, _dark_prob, mean_pairs_per_window


def photon_chunk_counts(seed, chunk_index, n, budget, det_a, det_b,
                        interference_prob, allow_double_pairs):
    """Outcome counts of one chunk of n windows, indexed by the window code
    click_a + 2*click_b + 4*true (a true coincidence implies both clicks).

    The chunk's Philox stream, keyed [seed, chunk_index], first splits the n
    windows over the cells (pair number k, dark A + 2*dark B) in one
    multinomial draw, which is exact since windows are exchangeable and only
    tallies leave the chunk. Pair slot k then draws an (m_k, 4) block
    (separation, detection 1, detection 2, interference) for the m_k windows
    holding more than k pairs, a prefix when laid out by descending k.
    """
    mu = mean_pairs_per_window(budget)
    q_a = budget.transmission_a * det_a.efficiency
    q_b = budget.transmission_b * det_b.efficiency
    sep = budget.bs_separation_prob
    pmf = (np.array([exp(-mu) * mu**i / factorial(i) for i in range(MAX_PAIRS + 1)])
           if allow_double_pairs else np.array([1.0 - min(mu, 1.0), min(mu, 1.0)]))
    pmf[-1] += max(0.0, 1.0 - pmf.sum())  # truncated Poisson: the tail joins MAX_PAIRS
    d_a, d_b = _dark_prob(det_a, budget.window_ns), _dark_prob(det_b, budget.window_ns)
    darks = np.outer([1.0 - d_b, d_b], [1.0 - d_a, d_a]).ravel()
    gen = np.random.Generator(np.random.Philox(key=[seed, chunk_index]))
    cells = gen.multinomial(n, np.outer(pmf, darks).ravel()).reshape(-1, 4)
    occupied = cells[:0:-1]  # windows holding pairs, by descending pair number
    dark = np.repeat(np.tile(np.arange(4, dtype=np.uint8), len(occupied)), occupied.ravel())
    ph_a, ph_b, true_pair = np.zeros((3, dark.size), dtype=bool)
    held = np.cumsum(occupied.sum(axis=1))[::-1]  # held[k]: windows with more than k pairs
    for m in held[held > 0]:
        u_sep, u_d1, u_d2, u_int = gen.random((m, 4)).T
        split = u_sep < sep
        both_a = ~split & (u_sep < sep + (1 - sep) / 2)
        both_b = ~split & ~both_a
        # split: photon 1 -> Alice, photon 2 -> Bob (interference veto on Bob)
        det1_split = split & (u_d1 < q_a)
        det2_split = split & (u_d2 < q_b) & (u_int < interference_prob)
        ph_a[:m] |= det1_split | (both_a & ((u_d1 < q_a) | (u_d2 < q_a)))
        ph_b[:m] |= det2_split | (both_b & ((u_d1 < q_b) | (u_d2 < q_b)))
        true_pair[:m] |= det1_split & det2_split

    gate = np.array([0, 1, 0 if det_b.mode == "gated" else 2, 3])  # gated Bob needs Alice's click
    clicks = (ph_a.view(np.uint8) + 2 * ph_b.view(np.uint8)) | dark
    counts = np.bincount(gate[clicks] + 4 * true_pair.view(np.uint8), minlength=8)
    np.add.at(counts, gate, cells[0])  # pair-free windows click by dark counts only
    return counts
