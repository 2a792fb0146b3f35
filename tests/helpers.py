"""Shared builders for randomized integer pipelines.

A pipeline is a flat [opcode, operand, opcode, operand, ...] list — the form
the registered kleisli functions take as a single capture — and can be turned
into shipped stages or run directly against the in-process oracle. Also a
way to make a loopback host slow, by stalling its entry on the fabric, and
ways to read and set the codec's memos.
"""
import time

from remotable import InlineValue, Stage, protocol
from remotable.funcs import OP_ADD, OP_INC, OP_MUL, run_int_pipeline

__all__ = [
    "OP_ADD", "OP_INC", "OP_MUL", "run_int_pipeline", "stages_for_ops", "random_ops",
    "stall_at_fabric", "MEMOS", "charged", "entry_bytes", "set_memos",
]

MEMOS = (protocol._ENDPOINTS, protocol._TEXTS, protocol._PIPELINES)


def stages_for_ops(ops):
    stages = []
    for i in range(0, len(ops), 2):
        opcode, operand = ops[i], ops[i + 1]
        if opcode == OP_INC:
            stages.append(Stage("inc"))
        elif opcode == OP_MUL:
            stages.append(Stage("mul", (InlineValue(operand),)))
        elif opcode == OP_ADD:
            stages.append(Stage("add", (InlineValue(operand),)))
        else:
            raise ValueError(f"unknown opcode {opcode}")
    return stages


def random_ops(rng, min_len=0, max_len=5):
    ops = []
    for _ in range(rng.randint(min_len, max_len)):
        opcode = rng.choice((OP_INC, OP_MUL, OP_ADD))
        ops.extend([opcode, rng.randint(-9, 9)])
    return ops


def stall_at_fabric(network, node, seconds):
    """Make each frame ``network`` delivers to ``node`` wait ``seconds`` before it is answered."""
    def stalled(frame):
        time.sleep(seconds)
        return node.host.handle_frame(frame)

    network.detach(node.endpoint)
    network.attach(node.endpoint, stalled)


def charged(memo):
    """The bytes the codec charges to ``memo``, one of MEMOS."""
    return protocol._CHARGED[id(memo)]


def entry_bytes(memo):
    """The bytes of ``memo``'s entries as they are charged: texts in _TEXTS, keys elsewhere."""
    return sum(map(len, memo.values() if memo is protocol._TEXTS else memo))


def set_memos(state):
    """Put the codec's memos in ``state``: "cold" (empty), "warm" (left as they
    are) or "just emptied" (each holding one filler entry charged the whole
    budget, so that the next store empties it)."""
    if state == "warm":
        return
    for memo in MEMOS:
        memo.clear()
        protocol._CHARGED[id(memo)] = 0
        if state == "just emptied":
            memo[("filler",)] = None
            protocol._CHARGED[id(memo)] = protocol.MEMO_BYTES
