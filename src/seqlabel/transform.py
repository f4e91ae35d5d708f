"""Convert raw (emission, state) streams into multi-label block datasets.

A stream of per-step emissions x_1..x_Ti with states y_1..y_Ti becomes, for
window length tau, one instance per anchor step t: the features are the
emissions x_{t-tau+1}..x_t plus the past states y_{t-tau}..y_{t-1} (as
categorical features), and the targets are the tau future states
y_t..y_{t+tau-1}.  Nothing later than x_t or y_{t-1} ever enters the
feature block, so real-time prediction remains possible.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Dataset, Feature, LabelSchema


@dataclass(frozen=True)
class Sequence:
    """One (emission, state) stream; emissions and states share the length."""

    emissions: tuple[tuple, ...]
    states: tuple[int, ...]
    id: str = ""

    def __post_init__(self):
        if len(self.emissions) != len(self.states):
            raise ValueError(f"sequence {self.id!r}: emissions/states length mismatch")
        if len(self.states) < 1:
            raise ValueError(f"sequence {self.id!r}: empty")

    def __len__(self) -> int:
        return len(self.states)


def window_anchors(T_i: int, tau: int, pad: bool) -> range:
    """Valid anchor steps (0-based) for a sequence of length ``T_i``.

    An anchor a uses emissions a-tau+1..a and past states a-tau..a-1 as
    features and targets states a..a+tau-1; without padding the targets must
    all exist, with padding the anchor may run to the final step.
    """
    last = T_i - 1 if pad else T_i - tau
    return range(tau, last + 1)


def window_transform(seqs, tau: int, pad: bool = False,
                     n_states: int | None = None,
                     features: tuple[Feature, ...] | None = None,
                     name: str = "") -> Dataset:
    """Slice sequences into block instances with stride 1.

    Without padding each sequence must have length >= 2*tau (so at least one
    full future window exists); with padding, length >= tau+1, and targets
    past the end repeat the final observed state.
    """
    seqs = list(seqs)
    if tau < 1:
        raise ValueError("tau must be >= 1")
    if not seqs:
        raise ValueError("no sequences given")
    if n_states is None:
        n_states = max(max(s.states) for s in seqs) + 1
    if features is None:
        features = tuple(Feature.numeric(f"x{j}") for j in range(len(seqs[0].emissions[0])))
    D_raw = len(features)

    for s in seqs:
        minimum = tau + 1 if pad else 2 * tau
        if len(s) < minimum:
            raise ValueError(
                f"sequence {s.id!r} has length {len(s)} < {minimum} "
                f"(tau={tau}, pad={'on' if pad else 'off'})")
        if max(s.states) >= n_states or min(s.states) < 0:
            raise ValueError(f"sequence {s.id!r}: state outside 0..{n_states - 1}")

    out_features = []
    for lag in range(tau - 1, -1, -1):
        for f in features:
            out_features.append(Feature(f.kind, f.cardinality, f"{f.name or 'x'}[t-{lag}]"))
    for lag in range(tau, 0, -1):
        out_features.append(Feature.categorical(n_states, f"y[t-{lag}]"))

    instances = []
    for s in seqs:
        T_i = len(s)
        for a in window_anchors(T_i, tau, pad):
            row: list = []
            for i in range(a - tau + 1, a + 1):
                e = s.emissions[i]
                if len(e) != D_raw:
                    raise ValueError(f"sequence {s.id!r}: emission arity {len(e)} != {D_raw}")
                row.extend(e)
            row.extend(s.states[a - tau:a])
            labels = tuple(
                s.states[i] if i < T_i else s.states[T_i - 1]
                for i in range(a, a + tau))
            instances.append((tuple(row), labels))

    schema = LabelSchema((n_states,) * tau)
    return Dataset(schema, tuple(out_features), instances, name=name)
