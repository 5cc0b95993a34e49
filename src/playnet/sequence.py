"""Possession sequences and their efficiency/security metrics.

A possession is a chain of decision networks: every completed pass hands
the ball (and the network) to the receiver, and the chain ends with a
shot, an interception, or a forced loss. Each step records the network
seen, the decision taken, and what actually happened (a StepOutcome,
whose values are the five log labels), so simulated turnovers terminate
sequences explicitly. PossessionSequence is the one place a step is
checked; Decision and PossessionStep are plain records.

Two aggregates summarize a sequence:

* efficiency: the best scoring probability any network in the chain
  offered; the sequence is s-efficient for every s up to this value.
* security: the worst completion probability among the passes the
  holder actually attempted (failed attempts count: the risk was taken);
  the sequence is p-secure for every p up to this value. A sequence with
  no pass is vacuously 1-secure; a lone shot risks no giveaway.

The "optimal pair" question (high efficiency AND high security) has no
single objective, so it is exposed as the Pareto frontier over the
(efficiency, security) plane: of sequences (pareto_frontier), or of any
(efficiency, security) points such as per-style means (pareto_points).

The sequence log is this module's file format: one sequence (an array
of {"network", "decision", "outcome"} steps) or an array of sequences.
sequence_from_obj checks each object's keys (jsonio.check_object), reads
each network and outcome label and leaves every other check to
PossessionSequence.

log_text writes a log as canonical_dumps text: the lone sequence for one
possession, else the array of all, laid out as "[\n  " + ",\n  ".join(
element texts) + "\n]\n", where every element starts with "[". Its
value shares one object per distinct sequence and per distinct step,
each told apart by identity (per_distinct): a path's possessions share
their prefix steps (see run_trials), so canonical_dumps encodes each
step once. A network's text is encoded once per process: the first log
that holds it keeps the text on the network (its _text slot, sound as
MatchState._estimate is), and each later step or log holding the same
object writes that jsonio.Encoded text again. A path step's completed
and ending steps share its network, and a loaded state keeps its
networks, so a repeated simulate encodes no network again.

load_log reads a log file through jsonio.read_input, as load_match_state
and load_config read theirs, and read_log reads its bytes. A log in
log_text's layout is read by its element texts: the elements of
splitting at ",\n  [". A repeat is found in place: each element is first
compared with the texts of the few distinct elements met most recently,
in this read or in the last successful read before it. Each of those
was cut at the first separator after its start, so it holds none, and
none can straddle its end, whose next byte is ",". So a text that starts
there and is followed by ",\n  [" or the log's end is exactly that
element, in any log. Any other element is found by one forward scan
that jumps from "[" to "[" (a memchr) and ends it at a "[" with ",\n  "
right before it. Each distinct element text is read once per read, and
its repeats share the frozen sequence, as do its repeats in later reads
while it is still among the recent texts. A step's text in an
element is its head, the text of its network and decision, then its
"outcome" line, one of five texts, and "}". Each distinct head's step
text is parsed on its own and checked once, and its later steps, in
this read or a later one, reuse its network and decision (hash-consing
keyed by the exact text, so a valid "r": 3 never vouches for "r": 3.0,
nor 0.0 for -0.0). A step text that read on its own reads so in any
log, so keeping heads between reads is exact. A read that ends or
starts (after another thread's read) with more than _MAX_HEADS heads
kept empties them.
Complete JSON values joined by "," and whitespace inside "[" and "]" are
exactly the array of those values (RFC 8259), so if every step text
reads on its own, its element is the array of them, and if every
element reads, the log is the array of those. If any fails, or the
layout differs (compact, truncated, a lone sequence, a step laid out
otherwise), the log is parsed whole and each sequence checked. Either
way the sequences and the first error are those of a whole parse.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass

from .decision import Decision
from .jsonio import Encoded, canonical_dumps, check_object, parse_json, read_input
from .network import DecisionNetwork, check_unit


class StepOutcome(enum.Enum):
    """What actually happened after a decision; each value is its label in a sequence log."""

    PASS_COMPLETED = "pass_completed"
    PASS_INTERCEPTED = "pass_intercepted"
    SHOT_SCORED = "shot_scored"
    SHOT_MISSED = "shot_missed"
    FORCED_LOSS = "forced_loss"

    @property
    def is_terminal(self) -> bool:
        return self is not StepOutcome.PASS_COMPLETED

    def label(self) -> str:
        """The wire label used in sequence log files."""
        return self.value


_SHOTS = (StepOutcome.SHOT_SCORED, StepOutcome.SHOT_MISSED)
# the keys of a step and of its decision (whose target is optional) in the log shape
_STEP_KEYS = frozenset(("network", "decision", "outcome"))
_DECISION_KEYS = frozenset(("type", "target"))


@dataclass(frozen=True)
class PossessionStep:
    """One link of the chain: the network seen, the decision, the outcome.

    A plain record: PossessionSequence checks it.
    """

    network: DecisionNetwork
    decision: Decision
    outcome: StepOutcome

    @property
    def attempted_pass_p(self) -> float | None:
        """Completion probability of the pass this step attempted, if any."""
        if self.decision.is_pass:
            return self.network.edges[self.decision.target].p
        return None


@dataclass(frozen=True)
class PossessionSequence:
    """A nonempty chain of steps; only the last one may end the possession.

    The one place a step is checked, each error naming its step: the
    outcome is a StepOutcome; a shoot carries no target and ends in a
    shot; a pass targets one of the holder's teammates and does not end
    in a shot; every non-final step is a completed pass whose receiver
    holds the ball in the next step, and the final step is terminal
    (shot, interception, or forced loss).
    """

    steps: tuple[PossessionStep, ...]

    def __post_init__(self) -> None:
        steps = self.steps
        if not steps:
            raise ValueError("a possession sequence needs at least one step")
        last = len(steps) - 1
        for k, step in enumerate(steps):
            decision, outcome = step.decision, step.outcome
            if not isinstance(outcome, StepOutcome):
                raise ValueError(f"step {k}: outcome {outcome!r} is not a StepOutcome")
            if decision.action == "shoot":
                if decision.target is not None:
                    raise ValueError(f"step {k}: a shoot decision cannot carry a target")
                if outcome not in _SHOTS:
                    raise ValueError(f"step {k}: a shoot decision cannot end in {outcome.value!r}")
            elif decision.action == "pass":
                if decision.target is None:
                    raise ValueError(f"step {k}: a pass decision needs a target")
                try:
                    step.network.check_teammate(decision.target)
                except ValueError as err:
                    raise ValueError(f"step {k}: {err}") from None
                if outcome in _SHOTS:
                    raise ValueError(f"step {k}: a pass decision cannot end in a shot")
            else:
                raise ValueError(f"step {k}: unknown decision action {decision.action!r}")
            if k == last:
                if not outcome.is_terminal:
                    raise ValueError(f"step {k}: final step must be terminal (shot, interception, or forced loss)")
            elif outcome is not StepOutcome.PASS_COMPLETED:
                raise ValueError(f"step {k}: non-final outcome must be pass_completed, got {outcome.value!r}")
            elif steps[k + 1].network.holder != decision.target:
                raise ValueError(
                    f"step {k + 1}: holder {steps[k + 1].network.holder} does not match "
                    f"the previous pass target {decision.target}"
                )

    def __len__(self) -> int:
        return len(self.steps)

    @property
    def terminal_outcome(self) -> StepOutcome:
        return self.steps[-1].outcome

    @property
    def scored(self) -> bool:
        return self.steps[-1].outcome is StepOutcome.SHOT_SCORED


def per_distinct(f, items) -> list:
    """[f(x) for x in items], with f called once per distinct object: a repeat gets its first result.

    Objects are told apart by identity. run_trials and read_log share one
    object per distinct possession, so work per possession is paid once per
    distinct one, and canonical_dumps encodes each shared result once. items
    is held as a list while f runs, so no id is reused for another object,
    even when items is a generator.
    """
    items = list(items)
    results = {}  # id of an object that items keeps alive -> f of it
    for x in items:
        if id(x) not in results:
            results[id(x)] = f(x)
    return [results[id(x)] for x in items]


def efficiency(seq: PossessionSequence) -> float:
    """Best scoring probability any network in the sequence offered."""
    return max(step.network.s for step in seq.steps)


def security(seq: PossessionSequence) -> float:
    """Worst completion probability among the attempted passes (1 if none)."""
    worst = 1.0
    for step in seq.steps:
        p = step.attempted_pass_p
        if p is not None and p < worst:
            worst = p
    return worst


def is_s_efficient(seq: PossessionSequence, s: float) -> bool:
    """True when some network in the sequence has scoring probability >= s."""
    return efficiency(seq) >= check_unit(s, "s")


def is_p_secure(seq: PossessionSequence, p: float) -> bool:
    """True when every attempted pass had completion probability >= p."""
    return security(seq) >= check_unit(p, "p")


def pareto_frontier(seqs) -> list[tuple[float, float, int]]:
    """Non-dominated (efficiency, security, index) points of a collection of sequences.

    A sequence object that recurs (a log's repeats share one) is measured once.
    """
    return pareto_points(per_distinct(lambda q: (efficiency(q), security(q)), seqs))


def pareto_points(points) -> list[tuple[float, float, int]]:
    """Non-dominated (efficiency, security, index) entries of (efficiency, security) points.

    A point survives iff no other point is >= in both coordinates and
    strictly greater in at least one; duplicates of a surviving point all
    survive. Output is sorted by efficiency descending, ties by index.

    Implemented as a sorted sweep; the O(n^2) pairwise check lives in the
    test suite as its oracle.
    """
    indexed = [(eff, sec, i) for i, (eff, sec) in enumerate(points)]
    if not indexed:
        raise ValueError("the Pareto frontier requires a nonempty collection")
    order = sorted(indexed, key=lambda t: (-t[0], -t[1], t[2]))
    frontier: list[tuple[float, float, int]] = []
    best_sec_above = -1.0  # max security among strictly higher efficiency
    i = 0
    n = len(order)
    while i < n:
        eff = order[i][0]
        block_best_sec = order[i][1]
        j = i
        while j < n and order[j][0] == eff:
            if order[j][1] == block_best_sec and block_best_sec > best_sec_above:
                frontier.append(order[j])
            j += 1
        if block_best_sec > best_sec_above:
            best_sec_above = block_best_sec
        i = j
    return frontier


def _step_from_obj(item: object, k: int) -> PossessionStep:
    """Step k of a sequence from its log shape, its keys, network and outcome label read."""
    check_object(item, _STEP_KEYS, ("network", "decision", "outcome"), f"step {k}")
    try:
        network = DecisionNetwork.from_json_dict(item["network"])
    except ValueError as err:
        raise ValueError(f"step {k}: {err}") from None
    dec_obj = item["decision"]
    check_object(dec_obj, _DECISION_KEYS, ("type",), f"step {k}: decision")
    try:
        outcome = StepOutcome(item["outcome"])
    except ValueError:
        raise ValueError(f"step {k}: unknown outcome label {item['outcome']!r}") from None
    return PossessionStep(network, Decision(action=dec_obj["type"], target=dec_obj.get("target")), outcome)


def sequence_from_obj(obj: object) -> PossessionSequence:
    """Rebuild a sequence from its log shape; PossessionSequence checks every step again."""
    if not isinstance(obj, list) or not obj:
        raise ValueError("expected a nonempty array of steps")
    return PossessionSequence(tuple(_step_from_obj(item, k) for k, item in enumerate(obj)))


def _network_text(network: DecisionNetwork) -> Encoded:
    """The network's text in a log, encoded once and kept on the network (its _text slot)."""
    text = network._text
    if text is None:
        text = Encoded(canonical_dumps(network.to_json_dict())[:-1])
        object.__setattr__(network, "_text", text)
    return text


def log_text(sequences) -> str:
    """The log of a run's sequences: the lone sequence for one, else the array of all.

    Its value holds one object per distinct step, told apart by identity
    as per_distinct tells sequences apart, so canonical_dumps encodes each
    once; a step holds its network's kept text.
    """
    laid: dict[int, dict] = {}  # id of a step of a sequence per_distinct keeps alive -> its object

    def lay(seq: PossessionSequence) -> list[dict]:
        out = []
        for step in seq.steps:
            obj = laid.get(id(step))
            if obj is None:
                decision = step.decision
                obj = laid[id(step)] = {
                    "network": _network_text(step.network),
                    "decision": {"type": "shoot"} if decision.is_shoot else {"type": "pass", "target": decision.target},
                    "outcome": step.outcome.label(),
                }
            out.append(obj)
        return out

    objs = per_distinct(lay, sequences)
    return canonical_dumps(objs[0] if len(objs) == 1 else objs)


# the end of a step's text in log_text's layout, its "outcome" line and "}", and what follows:
# ",\n    " and the next step, or the element's end
_STEP_TAIL = re.compile(
    '"outcome": "(' + "|".join(outcome.value for outcome in StepOutcome) + ')"\n    }(?:,\n    |\n  ]\\Z)'
)


def _element_sequence(text: str, seen: dict) -> PossessionSequence | None:
    """The sequence of an element text (after its "[") in log_text's layout, or None.

    The text is cut at each _STEP_TAIL into step texts: a head, up to the
    "outcome" line, then a tail. seen maps each head read so far, in this
    read or an earlier one, to a step read with it. A new head's step text
    is parsed on its own and checked, so it is one JSON value, and the
    element is the array of those values.
    A known head's step is neither parsed nor checked again: it read as
    one object ending in its tail, and another tail changes only the label
    of that object's last key. None, or a ValueError, sends read_log to a
    whole parse.
    """
    if not (text.startswith("\n    ") and text.endswith("\n  ]")):
        return None
    parts = _STEP_TAIL.split(text)
    if parts[-1]:
        return None
    parts[0] = parts[0][5:]
    steps = []
    for k, (head, label) in enumerate(zip(parts[0:-1:2], parts[1::2])):
        step = seen.get(head)
        if step is None:
            step = seen[head] = _step_from_obj(parse_json(f'{head}"outcome": "{label}"\n    }}'), k)
        elif step.outcome.value != label:
            step = PossessionStep(step.network, step.decision, StepOutcome(label))
        steps.append(step)
    return PossessionSequence(tuple(steps))


# how many distinct element texts _log_sequences matches in place before it scans
_RECENT = 8
# the last successful read's (text, sequence) list of recent elements, most recent first;
# each read starts from a copy and publishes its own, so no read sees another change its list
_KEPT: list[tuple[bytes, PossessionSequence]] = []
# step head -> a step read with it (see _element_sequence), kept across reads and shared
# by threads: two reads at once can only both read a head, or drop what the other kept
_HEADS: dict[str, PossessionStep] = {}
_MAX_HEADS = 1024


def _bound_heads() -> None:
    """Empty _HEADS if it holds more than _MAX_HEADS heads."""
    if len(_HEADS) > _MAX_HEADS:
        _HEADS.clear()


def _log_sequences(data: bytes) -> list[PossessionSequence] | None:
    """The sequences of a log in log_text's layout, read by its element texts, or None.

    An element's text runs from after its "[" to the first ",\n  [" after
    that, or to the log's "\n]\n". Each element is first compared in place
    with the texts of the last _RECENT distinct elements, most recent first
    (a move-to-front list): a text that starts there and is followed by
    ",\n  [" or the end is that element, which is then not searched for its
    end, sliced, hashed or read. This is exact: each kept text was cut at
    the first separator after its start, so it holds no ",\n  [", and none
    can straddle its end, whose next byte is ",". The list starts as a copy
    of _KEPT, the list of the last read that succeeded, and a read that
    succeeds publishes its own in its place, so the few distinct elements
    of one (state, style) pair are read once per process, not once per
    read, and no read sees a list that another thread changes. The cap
    bounds the cost of an element that matches none, as in a log without
    repeats, at _RECENT comparisons, where comparing with every text read
    so far would be quadratic. A possession path has at most two ends per
    step, so a log of one style holds few distinct elements: over seeds 0
    to 29, a 100-trial log of a shipped state holds 2 (box) or 4.4 to 5.0
    on average and at most 7 (midfield), and the list finds every repeat.

    Any other element is found by one forward scan that jumps from "[" to
    "[" (a memchr) and stops at a "[" with ",\n  " right before it, so each
    "[" is looked at once. Its text is looked up among all texts read, so
    each distinct text is read once (_element_sequence) and its repeats
    share the frozen sequence; it then goes to the front of the list. None
    sends read_log to a whole parse, which raises what it raises. A slice
    of UTF-8 decodes as the whole would, as the split points are ASCII.
    """
    if not (data.startswith(b"[\n  [") and data.endswith(b"\n]\n")):
        return None
    recent = list(_KEPT)  # (text, its sequence), most recent first
    read: dict[bytes, PossessionSequence] = {}  # element text after its "[" -> its sequence
    _bound_heads()
    sequences = []
    find = data.find
    startswith = data.startswith
    end = len(data) - 3
    start = 5  # the current element's text, after its "["
    while start >= 0:
        for i, (text, seq) in enumerate(recent):
            if startswith(text, start):
                stop = start + len(text)
                if stop == end or startswith(b",\n  [", stop):
                    if i:
                        recent.insert(0, recent.pop(i))
                    break
        else:
            stop = find(b"[", start, end)
            while stop >= 0 and data[stop - 4 : stop] != b",\n  ":
                stop = find(b"[", stop + 1, end)
            stop = stop - 4 if stop >= 0 else end
            text = data[start:stop]
            seq = read.get(text)
            if seq is None:
                try:
                    seq = read[text] = _element_sequence(text.decode("utf-8", "surrogatepass"), _HEADS)
                except ValueError:  # UnicodeDecodeError included
                    return None
                if seq is None:
                    return None
            recent.insert(0, (text, seq))
            del recent[_RECENT:]
        sequences.append(seq)
        start = stop + 5 if stop != end else -1  # stop ends the text; skip ",\n  ["
    _KEPT[:] = recent
    return sequences


def read_log(data: bytes) -> list[PossessionSequence]:
    """The sequences of a log's bytes, each checked; an error names its sequence and step."""
    try:
        sequences = _log_sequences(data)
    finally:
        _bound_heads()
    if sequences is None:
        items = parse_json(data)
        if not isinstance(items, list) or not items:
            raise ValueError("expected a nonempty array")
        if isinstance(items[0], dict):
            return [sequence_from_obj(items)]
        sequences = []
        for i, item in enumerate(items):
            try:
                sequences.append(sequence_from_obj(item))
            except ValueError as err:
                raise ValueError(f"sequence {i}: {err}") from None
    return sequences


def load_log(path) -> list[PossessionSequence]:
    return read_input("log", path, read_log)
