"""The two protocols on which SPOR is unsound (ROADMAP item 1).

An *enabled* transition gains executions when a further candidate message
arrives, so it is not the one deterministic event step 2 of the closure in
``por/stubborn.py`` takes it for.  In both toys the collector ``c`` is
seeded before the last ``GO_<s>`` (ties between seeds break in name order —
the ``A_`` prefix matters), the execution consuming that sender's ``VAL`` is
never explored, and the reduced search says ``Verified`` where the unreduced
one and DPOR find the counterexample.  The engine harness
(``tests/integration/test_engine_harness.py``) runs them as two of its
cells.
"""

from __future__ import annotations

from repro.checker.property import Invariant
from repro.mp import LporAnnotation, ProtocolBuilder, SendSpec, exact_quorum
from repro.mp.message import DRIVER


def build_toy(senders, collector, quorum):
    """``GO_<s>`` sends ``VAL`` to ``c``; ``c``'s one-shot ``collector``
    forwards *which* senders it consumed to ``d``, whose visible ``RECORD``
    stores them."""
    builder = ProtocolBuilder(collector)
    for sender in senders:
        builder.add_process(sender, "sender", ())
    builder.add_process("c", "collector", ())
    builder.add_process("d", "recorder", ())
    for sender in senders:
        builder.add_transition(
            f"GO_{sender}", sender, f"GO_{sender}",
            action=lambda _local, _messages, ctx: ctx.send("c", "VAL"),
            annotation=LporAnnotation(
                sends=(SendSpec("VAL", recipients=frozenset({"c"})),),
                possible_senders=frozenset({DRIVER}),
            ),
        )
        builder.trigger(f"GO_{sender}", sender)

    def forward(_local, messages, ctx):
        consumed = tuple(sorted(message.sender for message in messages))
        ctx.send("d", "RESULT", q=consumed if quorum else consumed[0])
        return ("done",)

    builder.add_transition(
        collector, "c", "VAL", action=forward,
        guard=lambda local, _messages: local == (),
        quorum=exact_quorum(quorum) if quorum else None,
        annotation=LporAnnotation(
            sends=(SendSpec("RESULT", recipients=frozenset({"d"})),),
            possible_senders=frozenset(senders),
        ),
    )
    builder.add_transition(
        "RECORD", "d", "RESULT",
        action=lambda _local, messages, _ctx: messages[0].get("q"),
        annotation=LporAnnotation(visible=True, possible_senders=frozenset({"c"})),
    )
    return builder.build()


def never_records(bad):
    return Invariant(
        f"d != {bad!r}", lambda state, _protocol: state.local("d") != bad,
        network_sensitive=False,
    )


#: name -> (protocol factory, invariant); both invariants are violated.
TOYS = {
    "quorum": (lambda: build_toy(("s1", "s2", "s3"), "A_COLLECT", quorum=2),
               never_records(("s1", "s3"))),
    "first-wins": (lambda: build_toy(("s1", "s2"), "A_FIRST", quorum=None),
                   never_records("s2")),
}
#: The seed heuristics under which the stubborn-set reductions miss both
#: counterexamples; ``fewest-dependents`` happens to seed a ``GO_<s>`` first
#: and finds both.
UNSOUND_SEEDS = ("opposite-transaction", "transaction", "first")
