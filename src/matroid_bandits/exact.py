"""Exact optimal-basis identification by alternating round types.

While suboptimal arms are in the majority, an elimination round solves the
current matroid approximately and discards arms its solution blocks. Once
remaining-optimal arms dominate, a selection round commits every arm that no
set of competitors can block and contracts it away. Accuracy doubles and
confidence tightens on a fixed per-round schedule.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BudgetError, DomainError, InvariantError, integer, real
from .matroids import Matroid, shifted_thresholds, unblocked
from .pac import ConstantsProfile, PacResult, pac_sample_prune
from .sampling import SamplingSession, _check_drawable, sample_size

ELIMINATION = "elimination"
SELECTION = "selection"
FINAL_SELECT = "final_select"


@dataclass(frozen=True)
class ExactRound:
    """One round's observables for traces and tests."""

    kind: str
    r: int
    ground: tuple[int, ...]
    n_opt: int
    n_bad: int
    changed: tuple[int, ...]
    samples_so_far: int

    def to_record(self) -> dict:
        """This round as one ``--trace`` JSONL line, less the trial index."""
        return {"kind": self.kind, "r": self.r, "size": len(self.ground),
                "n_opt": self.n_opt, "n_bad": self.n_bad,
                "changed": len(self.changed), "samples": self.samples_so_far}


def round_schedule(r: int, delta: float) -> tuple[float, float]:
    """Accuracy/confidence pair used in round ``r`` (halving / cubic decay);
    a round confidence that underflows to 0.0 is not drawable."""
    r = integer(r, "round index", DomainError, 1)
    delta = real(delta, "delta", DomainError, "(0, 1)")
    delta_r = delta / (100.0 * r**3)
    _check_drawable(delta_r)
    return 2.0**-r / 4.0, delta_r


def _assert_no_loops(m: Matroid) -> None:
    loops = m.loops()
    if loops:
        raise InvariantError(f"loop {min(loops)} appeared in the working matroid")


def exact_exp_gap(
    session: SamplingSession,
    m: Matroid,
    delta: float,
    profile: ConstantsProfile,
) -> PacResult:
    """Identify the unique optimal basis with confidence 1 - delta.

    Requires distinct true means (not verifiable from samples; instance
    generation enforces it). Raises ``BudgetError`` when the round guard is
    exceeded, i.e. some gap is finer than the guard can resolve.
    """
    delta = real(delta, "delta", DomainError, "(0, 1)")
    answer: set[int] = set()
    m_cur: Matroid = m
    rounds = dict.fromkeys((ELIMINATION, SELECTION), 0)
    transcript: list[ExactRound] = []
    start = session.total_samples

    while True:
        _assert_no_loops(m_cur)
        current = m_cur.ground
        n_opt = m_cur.full_rank
        n_bad = len(current) - n_opt
        if n_opt == 0:
            break
        if n_bad == 0:
            answer |= set(current)
            transcript.append(
                ExactRound(
                    FINAL_SELECT, rounds[SELECTION] + 1, current, n_opt, n_bad,
                    current, session.total_samples - start,
                )
            )
            break

        kind = ELIMINATION if n_opt <= n_bad else SELECTION
        rounds[kind] += 1
        r = rounds[kind]
        if r > profile.round_guard:
            raise BudgetError(f"{kind} round guard {profile.round_guard} exceeded",
                              f"{kind}_round")
        eps_r, delta_r = round_schedule(r, delta)

        if kind == ELIMINATION:
            inner = pac_sample_prune(session, m_cur, eps_r, delta_r, profile).basis
            weights = session.uniform_sample(inner, sample_size(eps_r / 2.0, delta_r / n_opt))
            rest = session.uniform_sample(session.sample_ids(m_cur, inner),
                                          sample_size(eps_r, delta_r / n_opt))

            thresholds = shifted_thresholds(rest, 1.5 * eps_r)
            changed = inner | unblocked(m_cur, inner, weights, thresholds)
            if m_cur.rank(changed) != n_opt:
                raise InvariantError("elimination dropped the rank of the survivors")
            m_next = m_cur.restrict(changed)
        else:
            means = session.uniform_sample(
                session.sample_ids(m_cur), sample_size(eps_r, delta_r / len(current))
            )
            thresholds = shifted_thresholds(means, -2.0 * eps_r)
            changed = unblocked(m_cur, current, means, thresholds)
            if not m_cur.is_independent(changed):
                raise InvariantError("selected arms are not jointly independent")
            answer |= changed
            m_next = m_cur.contract(changed)
        transcript.append(
            ExactRound(
                kind, r, current, n_opt, n_bad,
                tuple(sorted(changed)), session.total_samples - start,
            )
        )
        m_cur = m_next

    return PacResult(frozenset(answer), tuple(transcript))
