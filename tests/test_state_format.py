"""State echo and dump: byte-identical to a per-term reference, and bounded in memory."""

import tracemalloc

import numpy as np
from hypothesis import example, given, settings, strategies as st

from qclite import MachineState, RegisterMap
from qclite.machine import PRINT_TOL, format_amplitude, gate

from conftest import make_session

# -- reference: the per-term formatter the NumPy helper replaced -----------------


def ref_state_terms(m):
    mags = np.abs(m.amp)
    terms = [(int(i), complex(m.amp[i])) for i in np.nonzero(mags > PRINT_TOL)[0]]
    terms.sort(key=lambda item: (-abs(item[1]), item[0]))
    return terms


def ref_ket_bits(index, qubits):
    return "".join("1" if (index >> q) & 1 else "0" for q in qubits)


def ref_format_dump(m):
    a = len(m.allocated)
    header = (f"STATE: {a} / {m.total} qubits allocated, "
              f"{m.total - a} / {m.total} qubits free")
    order = list(range(m.total - 1, -1, -1))
    terms = " + ".join(f"{format_amplitude(c)} |{ref_ket_bits(i, order)}>"
                       for i, c in ref_state_terms(m))
    return header + "\n" + terms


def ref_echo_state(session):
    allocated = sorted(session.machine.allocated, reverse=True)
    terms = " + ".join(f"{format_amplitude(c)} |{ref_ket_bits(i, allocated)}>"
                       for i, c in ref_state_terms(session.machine))
    return f"[{len(allocated)}/{session.machine.total}] {terms}"


# -- random circuits --------------------------------------------------------------

# Rot(t) moves sin(t/2) into |1>: 9e-9 stays below PRINT_TOL, 1.1e-8 is printed
NEAR_TOL = ("0.000000018", "0.000000022")
angles = st.sampled_from(NEAR_TOL) | st.floats(-3.1416, 3.1416).map(lambda x: f"{x:.4f}")


@st.composite
def circuits(draw):
    """(total qubits, register sizes, ops): three registers free the middle one."""
    total = draw(st.sampled_from([8, 32]))
    regs = draw(st.sampled_from([(), (2,), (3,), (4,), (5,), (6,), (1, 1, 1),
                                 (2, 1, 2), (1, 2, 3), (3, 1, 3)]))
    live = sum(regs) - (regs[1] if len(regs) == 3 else 0)
    if live == 0:
        return total, regs, []
    qubit = st.integers(0, live - 1)
    op = st.one_of(
        st.just(("Hall",)),
        st.tuples(st.just("H"), qubit),
        st.tuples(st.just("Rot"), angles, qubit),
        st.tuples(st.just("Phase"), angles, qubit),
        st.tuples(st.just("CNot"), qubit, qubit).filter(lambda t: t[1] != t[2]),
    )
    return total, regs, draw(st.lists(op, max_size=12))


def run_circuit(total, regs, ops):
    session = make_session(qubits=total)
    names = ["abc"[r] for r in range(len(regs))]
    session.run_line(" ".join(f"qureg {n}[{size}];" for n, size in zip(names, regs)))
    live = [f"{n}[{i}]" for n, size in zip(names, regs) for i in range(size)]
    if len(regs) == 3:
        session.machine.free_register(RegisterMap(tuple(range(regs[0], regs[0] + regs[1]))))
        live = [q for q in live if not q.startswith("b")]
    for op in ops:
        if op[0] == "Hall":
            text = " ".join(f"H({q});" for q in live)
        elif op[0] == "H":
            text = f"H({live[op[1]]});"
        elif op[0] == "Rot":
            text = f"Rot({op[1]}, {live[op[2]]});"
        elif op[0] == "Phase":
            text = f"if {live[op[2]]} {{ Phase({op[1]}); }}"
        else:
            text = f"CNot({live[op[1]]}, {live[op[2]]});"
        session.run_line(text)
    return session


@settings(max_examples=200, deadline=None)
@given(circuits())
@example((8, (4,), [("Hall",)]))                                   # exact ties
@example((8, (2, 1, 2), [("Hall",), ("Phase", "0.7854", 3)]))      # a gap
@example((8, (2,), [("Rot", NEAR_TOL[0], 0), ("Rot", NEAR_TOL[1], 1)]))
@example((8, (), []))                                              # nothing allocated
@example((32, (3,), [("Hall",), ("CNot", 0, 2)]))                  # 3 of 32 held
@example((8, (4,), [("Hall",), ("Phase", "0.3000", 1), ("Phase", "1.1000", 2),
                    ("Phase", "-2.5000", 3), ("Rot", "0.7000", 0)]))
def test_echo_dump_and_terms_match_the_per_term_reference(case):
    session = run_circuit(*case)
    m = session.machine
    assert session.echo_state() == ref_echo_state(session)
    assert m.format_dump() == ref_format_dump(m)
    terms = m.state_terms()
    assert terms == ref_state_terms(m)
    assert all(type(i) is int and type(c) is complex for i, c in terms)


def test_amplitudes_either_side_of_the_print_tolerance():
    session = run_circuit(8, (2,), [("Rot", NEAR_TOL[0], 0), ("Rot", NEAR_TOL[1], 1)])
    assert session.echo_state() == "[2/8] 1 |00> + -1.1e-08 |10>"


def test_gap_left_by_a_freed_register_is_not_echoed():
    session = run_circuit(8, (2, 1, 2), [("H", 3)])
    m = session.machine
    assert sorted(m.allocated) == [0, 1, 3, 4] and m.materialized == 5
    assert session.echo_state() == "[4/8] 0.707107 |0000> + 0.707107 |1000>"
    assert m.format_dump().split("\n")[1] == (
        "0.707107 |00000000> + 0.707107 |00010000>")


def test_wide_dump_peak_memory_stays_under_six_times_its_text():
    m = MachineState(32)
    for q in m.allocate_register(16).qubits:
        m.apply_primitive(gate("H", target=q))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        text = m.format_dump()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    terms = text.split("\n")[1].split(" + ")
    assert len(terms) == 1 << 16 and len(text) > 3_000_000
    assert terms[0] == "0.00390625 |" + "0" * 32 + ">"
    assert terms[-1] == "0.00390625 |" + "0" * 16 + "1" * 16 + ">"
    assert peak < 6 * len(text), f"peak {peak / len(text):.2f} x the dump text"
