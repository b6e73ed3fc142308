"""Golden regression digests for the PODEM search.

Every case runs PODEM over a fixed fault list and hashes a per-fault
fingerprint: status, abort reason, backtracks, decisions, implications,
the extracted vectors and the initial state.  The digests were recorded
with the dictionary-keyed engine, so any change to the implication order,
the D-frontier tie-break or the backtrace shows up here as a changed
digest, even when the detected/untestable/aborted counts happen to agree.

The cases cover what the benchmark runs (a seeded arm_alu sample at one
frame, backtrack limit 10) and what it never runs: filterchip/limiter at
one to three frames with its PIERs, and the small FSM/counter/adder
netlists of ``test_podem.py`` with and without PIERs.
"""

import hashlib
import json
import random

import pytest

from repro import Factor
from repro.atpg.faults import build_fault_list
from repro.atpg.podem import Podem
from repro.atpg.sequential import UnrolledModel
from repro.designs import (adder_source, arm2_source, counter_source,
                           filterchip_source, fsm_source)
from repro.hierarchy import Design
from repro.synth import synthesize
from repro.verilog.parser import parse_source

# case -> (status counts, sha256 of the per-fault fingerprints)
GOLDEN = {
    "arm_alu/f1": (
        {"aborted": 91, "detected": 108, "untestable": 1},
        "d7f9812f38c536488493f8302a60c4953df6b2070c629a106028af90585c56d2",
    ),
    "limiter/f1": (
        {"aborted": 14, "detected": 10},
        "f264304715cfb39ab8c55a299295ebc534fa86c2d0697ec0f9f78fe453e2078d",
    ),
    "limiter/f2": (
        {"aborted": 7, "detected": 9, "untestable": 8},
        "3c7ac89590cf621cc65d721c0a41f6cbf6a7f8eb395115bab1538c758c32185f",
    ),
    "limiter/f3": (
        {"aborted": 5, "detected": 19},
        "e51b5868a6c2071e7c130a8e5335c06b441bbb110944ad8662535ebf4ef5faf2",
    ),
    "fsm/f1": (
        {"untestable": 42},
        "0d9e132b1a0ebf054e06df3d9db4684245b46f98eea68ba1b755b1902399b2e2",
    ),
    "fsm/f1/piers": (
        {"detected": 34, "untestable": 8},
        "ee073a3208be2d0422717887bf982b2a205d3cfb782e67bd26a347295adad385",
    ),
    "fsm/f2": (
        {"detected": 5, "untestable": 37},
        "85bfc1b49341e4825af387f3b8fb6012e105d3d36215eaab1a4632f288fc5f2b",
    ),
    "fsm/f2/piers": (
        {"detected": 34, "untestable": 8},
        "594786ee80ee0015e926c01511cbd33fa2fa4db601d851b8391fa9320e47adea",
    ),
    "fsm/f3": (
        {"detected": 18, "untestable": 24},
        "5284fc824ec6421e75ad5552369a263f074ec5daea5febff1ae915023b111045",
    ),
    "fsm/f3/piers": (
        {"detected": 34, "untestable": 8},
        "48c5cf2aa9e554f73fa7daffa4ba701c009fbdd8efe5bee18f3f9a3ddcba2b89",
    ),
    "counter/f1": (
        {"untestable": 46},
        "2d6d5655871db6da16d1ba217963d1bf2fee48f7e6273fc60256c698a33fad6a",
    ),
    "counter/f1/piers": (
        {"detected": 44, "untestable": 2},
        "0f497c3151d46bec9ea46d4455ea1d040c33d9376c617062572b37154a469b6d",
    ),
    "counter/f2": (
        {"detected": 9, "untestable": 37},
        "09c84096ad453d158d4215096bd68d5a5927884a09f8fea352a7783e7aa7e7a7",
    ),
    "counter/f2/piers": (
        {"detected": 44, "untestable": 2},
        "160ce3dd75509bae5e06d2e113dc7b348bb8effdd2f53cf24b6afc8b4639a6c1",
    ),
    "counter/f3": (
        {"detected": 18, "untestable": 28},
        "ad5ebee23831b4771a00a4f7167ee96685fe36519f05fecbb216da7d75473c97",
    ),
    "counter/f3/piers": (
        {"detected": 44, "untestable": 2},
        "7f2c31c15c3cce6fd16606b1d7562f9975cc25599ebcd774eb36f603a2dfe6bc",
    ),
    "counter/f6": (
        {"detected": 25, "untestable": 21},
        "70b7dd2a7fc08c196949d61e779bfc675a763e97dac645725e27de67b028761f",
    ),
    "counter/f6/piers": (
        {"detected": 44, "untestable": 2},
        "7508f66c54db9ff81f8f7d970303ac3252ae829c307ff8aca0c3b3f9ffa83ed3",
    ),
    "adder/f1": (
        {"detected": 64},
        "288ea08cefda5a1c49ee1d51a0d048c61bdf2315c44f2c82b6852078959ae5f4",
    ),
}


def _fingerprint(result):
    return [
        result.fault.net, result.fault.value,
        result.status, result.abort_reason,
        result.backtracks, result.decisions, result.implications,
        [sorted(vec.items()) for vec in result.vectors],
        sorted(result.initial_state.items()),
    ]


def _digest(model, faults, backtrack_limit):
    counts = {}
    sha = hashlib.sha256()
    for fault in faults:
        result = Podem(model, fault, backtrack_limit=backtrack_limit).run()
        counts[result.status] = counts.get(result.status, 0) + 1
        sha.update(json.dumps(_fingerprint(result)).encode())
        sha.update(b"\n")
    return dict(sorted(counts.items())), sha.hexdigest()


def _check(case, model, faults, backtrack_limit):
    assert _digest(model, faults, backtrack_limit) == GOLDEN[case], case


@pytest.fixture(scope="module")
def analyses(tmp_path_factory):
    """Transformed netlists of arm_alu and limiter, analyzed once."""
    store = tmp_path_factory.mktemp("artifact-store")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_CACHE_DIR", str(store))
        arm = Factor.from_verilog(arm2_source(), top="arm").analyze(
            "arm_alu", path="u_core.u_dp.u_alu.")
        chip = Factor.from_verilog(filterchip_source(),
                                   top="filterchip").analyze(
            "limiter", path="u_dsp.u_lim.")
    return {"arm_alu": arm, "limiter": chip}


def _mut_faults(result):
    tr = result.transformed
    return build_fault_list(tr.netlist, region=tr.mut_region)


def test_arm_alu_sample(analyses):
    result = analyses["arm_alu"]
    faults = random.Random(2002).sample(_mut_faults(result), 200)
    model = UnrolledModel(result.transformed.netlist, 1,
                          pier_qs=set(result.pier_nets))
    _check("arm_alu/f1", model, faults, backtrack_limit=10)


@pytest.mark.parametrize("frames", [1, 2, 3])
def test_limiter_multi_frame(analyses, frames):
    result = analyses["limiter"]
    faults = random.Random(2002).sample(_mut_faults(result), 24)
    model = UnrolledModel(result.transformed.netlist, frames,
                          pier_qs=set(result.pier_nets))
    _check(f"limiter/f{frames}", model, faults, backtrack_limit=10)


# name -> (source, frame counts, PIER settings); the adder has no state.
SMALL = {
    "fsm": (fsm_source, (1, 2, 3), (False, True)),
    "counter": (counter_source, (1, 2, 3, 6), (False, True)),
    "adder": (adder_source, (1,), (False,)),
}


@pytest.mark.parametrize("name,frames,piers", [
    (name, frames, piers)
    for name, (_src, depths, pier_settings) in SMALL.items()
    for frames in depths
    for piers in pier_settings
])
def test_small_netlists(name, frames, piers):
    netlist = synthesize(Design(parse_source(SMALL[name][0]())))
    pier_qs = {dff.output for dff in netlist.dffs()} if piers else None
    model = UnrolledModel(netlist, frames, pier_qs=pier_qs)
    case = f"{name}/f{frames}" + ("/piers" if piers else "")
    _check(case, model, build_fault_list(netlist), backtrack_limit=200)
