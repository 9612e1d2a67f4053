"""Both models' cut lists derived from node cuts, as the test reference.

The cut-set bound (Cover and Thomas, *Elements of Information Theory*, 2nd
ed., Thm 15.10.1) takes every subset S of the nodes {A_i, B_i} and the relay
R other than none and all: the sessions from S to its complement cross it,
and their rates sum to at most the mutual information from S's inputs to
the complement's outputs.  Users hear only the relay, so without R in S
that is the MISO channel from S's users into R, and with R in S the SIMO
channel from R to the users outside S.  Each crossing set keeps its least
bound over the subsets that give it.

A session and its source node share an index: 2i for A_i (to B_i), 2i + 1
for B_i (to A_i), so node k's destination is k ^ 1.  The deterministic
bound is the GF(2) rank of the cut's transfer matrix, stacked from shift
matrices; the Gaussian one (two pairs) is log2(1 + P (sum |h|)^2) into R
and log2(1 + P sum |h|^2) out of R.  Nothing here reads a cut list or a
function of `relaycap`; `test_reference_imports_no_function` keeps it that
way.
"""

import itertools
import math


def crossing_bounds(pairs, into, out_of):
    """Each nonempty crossing set of a ``pairs``-pair network's node cuts,
    as a frozenset of sessions, with its least bound: ``into(users)`` for a
    cut without the relay, ``out_of(users)`` for the users a cut with the
    relay leaves out."""
    nodes = range(2 * pairs)
    bounds = {}
    for subset in itertools.product((False, True), repeat=2 * pairs + 1):
        if all(subset) or not any(subset):
            continue
        with_relay, *inside = subset
        crossing = frozenset(k for k in nodes if inside[k] and not inside[k ^ 1])
        if not crossing:
            continue
        bound = out_of([k for k in nodes if not inside[k]]) if with_relay else into([k for k in nodes if inside[k]])
        bounds[crossing] = min(bounds.get(crossing, bound), bound)
    return bounds


def shift(q, n):
    """The q x q shift matrix S^(q - n), which passes the top n of q levels,
    as its rows' bit masks."""
    return [1 << (i - (q - n)) if i >= q - n else 0 for i in range(q)]


def gf2_rank(rows):
    """The rank over GF(2) of a matrix given as its rows' bit masks."""
    basis = []
    for row in rows:
        for b in basis:
            row = min(row, row ^ b)
        if row:
            basis.append(row)
    return len(basis)


def det_bounds(net):
    """The deterministic network's crossing bounds, full duplex: the rank of
    the users' shift matrices side by side into R, stacked out of R."""
    up = [g for i in range(net.pairs) for g in (net.n_ar[i], net.n_br[i])]
    down = [g for i in range(net.pairs) for g in (net.n_ra[i], net.n_rb[i])]
    q = max(up + down)

    def into(users):
        blocks = [shift(q, up[k]) for k in users]
        return gf2_rank([sum(block[i] << (q * j) for j, block in enumerate(blocks)) for i in range(q)])

    def out_of(users):
        return gf2_rank([row for k in users for row in shift(q, down[k])])

    return crossing_bounds(net.pairs, into, out_of)


def gauss_bounds(net):
    """The two-pair Gaussian network's crossing bounds."""
    up = [h for pair in zip(net.h_ar, net.h_br) for h in pair]
    down = [h for pair in zip(net.h_ra, net.h_rb) for h in pair]

    def into(users):
        return math.log2(1.0 + net.power * sum(up[k] for k in users) ** 2)

    def out_of(users):
        return math.log2(1.0 + net.power * sum(down[k] ** 2 for k in users))

    return crossing_bounds(2, into, out_of)
