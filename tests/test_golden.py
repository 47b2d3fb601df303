"""Golden outputs: the ordered extension ledger, the failure details of each
pipeline stage, and the exact bytes the CLI prints and writes.

The digests are sha256 of the stdout of each command and of each file it
writes. Commands run inside a temporary directory with relative paths,
because reports and traces record the file names they were given.
"""

import hashlib
import json
from fractions import Fraction as F

from qaffine import EvalParams, evaluation_module, qparam, tensor_product
from qaffine.cli import main
from qaffine.extension import build_a_astar, build_b_bstar, build_w_grid, eigen_flags
from qaffine.factory import restrict_to_ugeq0
from qaffine.modfile import write_module
from qaffine.report import CheckLog
from qaffine.weights import WeightLadder, analyze_ugeq0

LEDGER = [
    "input-relations",
    "weyl(Kinv,A)", "weyl(K,Astar)", "serre(A,Astar)", "serre(Astar,A)",
    "eigendecomp(A)", "eigendecomp(Astar)",
    "flag-tail-match", "flag-head-match", "weight-from-flags",
    "move(A,U)", "move(Astar,U)",
    "move(Kinv,V)", "move(K,V-tail)", "move(K,Vstar)", "move(Kinv,Vstar-head)",
    "tridiag(Astar,V)", "tridiag(A,Vstar)",
    "grid-boundary(row)", "grid-boundary(col)", "grid-vanishing",
    "grid-monotone",
    "grid-move(A)", "grid-move(Astar)", "grid-move(Kinv)", "grid-move(K)",
    "decomposition(W)", "decomposition(Wstar)",
    "ladder(W):A-up", "ladder(W):Astar-down", "ladder(W):Kinv-down",
    "ladder(W):K-head",
    "ladder(Wstar):A-up", "ladder(Wstar):Astar-down", "ladder(Wstar):K-up",
    "ladder(Wstar):Kinv-tail",
    "sum(W-tail)", "sum(W-head)", "sum(Wstar-tail)", "sum(Wstar-head)",
    "weyl(A,B)", "weyl(B,Astar)", "weyl(Astar,Bstar)", "weyl(Bstar,A)",
    "weyl(B,Kinv)", "weyl(Bstar,K)",
    "serre(B,Bstar)", "serre(Bstar,B)",
    "move(B,V)", "move(B,Vstar)", "move(Bstar,V)", "move(Bstar,Vstar)",
    "move(B,U)", "move(Bstar,U)",
    "tridiag(B,Wstar)", "tridiag(Bstar,W)",
    "reconstruct(B)", "reconstruct(Bstar)",
    "weight(r)", "weight(l)",
    "commutator(r,L)", "commutator(l,R)",
    "commute(l,L)", "commute(r,R)",
    "serre(R,L)", "serre(L,R)", "serre(r,l)", "serre(l,r)",
    "output-relations", "output-type", "output-diameter",
]

CONTAINMENT_0 = "containment fails at index 0"
CONTAINMENT_1 = "containment fails at index 1"
GRID_02 = "grid move fails at (0,2)"

# Failing (name, detail) pairs of each stage fed deliberately wrong data.
STAGE_FAILURES = {
    "flags(mirrored ladder)": [
        ("flag-tail-match",
         "suffix sums of the A-flag do not match the weight-space suffix sums"),
        ("flag-head-match",
         "prefix sums of the A*-flag do not match the weight-space prefix sums"),
        ("weight-from-flags",
         "weight spaces differ from head(A*-flag) n tail(A-flag)"),
        ("move(A,U)", CONTAINMENT_0),
        ("move(Astar,U)", CONTAINMENT_0),
    ],
    "grid(swapped flags)": [
        ("grid-move(A)", GRID_02),
        ("grid-move(Astar)", GRID_02),
        ("grid-move(Kinv)", GRID_02),
        ("grid-move(K)", GRID_02),
        ("ladder(W):A-up", CONTAINMENT_0),
        ("ladder(W):Astar-down", CONTAINMENT_0),
        ("ladder(W):Kinv-down", CONTAINMENT_0),
        ("ladder(W):K-head", CONTAINMENT_0),
        ("ladder(Wstar):A-up", CONTAINMENT_0),
        ("ladder(Wstar):Astar-down", CONTAINMENT_0),
        ("ladder(Wstar):K-up", CONTAINMENT_0),
        ("ladder(Wstar):Kinv-tail", CONTAINMENT_0),
    ],
    "split(swapped spaces)": [
        ("weyl(A,B)", "7 nonzero residual entries"),
        ("weyl(B,Astar)", "7 nonzero residual entries"),
        ("weyl(Astar,Bstar)", "7 nonzero residual entries"),
        ("weyl(Bstar,A)", "7 nonzero residual entries"),
        ("weyl(B,Kinv)", "5 nonzero residual entries"),
        ("weyl(Bstar,K)", "5 nonzero residual entries"),
        ("serre(B,Bstar)", "16 nonzero residual entries"),
        ("serre(Bstar,B)", "16 nonzero residual entries"),
        ("move(B,V)", CONTAINMENT_0),
        ("move(B,Vstar)", CONTAINMENT_0),
        ("move(Bstar,V)", CONTAINMENT_1),
        ("move(Bstar,Vstar)", CONTAINMENT_1),
        ("move(B,U)", CONTAINMENT_0),
        ("move(Bstar,U)", CONTAINMENT_1),
        ("tridiag(B,Wstar)", CONTAINMENT_0),
        ("tridiag(Bstar,W)", CONTAINMENT_0),
    ],
}

STAGE_LEDGER_SHA256 = (
    "055a64ffec26ef712126d4b9ba77cb3a"
    "9639da4828167506d995307546f7941f"
)

CLI_SHA256 = {
    "$ restrict full8.json --alpha 1 -o r8.json":
        "49066c3a12bb09ebd9cbb4012ed62fc1c4969428496695a2198a64361ddaf179",
    "$ extend r8.json --eps0 1 --eps1 1 --trace t8.json -o e8.json":
        "c46b7f231eacd84b453820195c0b230b67a33dcc862782a1ba8d58d1551b6b58",
    "$ --q 3/2 restrict full6.json --alpha 2/3 -o r6.json":
        "77d0aa12d8cae3548abf6c6c2e894c7dc31d67468c9a202d1cd4a6b19f72f8e9",
    "$ --q 3/2 extend r6.json --eps0 1 --eps1 -1 --trace t6.json -o e6.json":
        "86a23bbcf3fe76982f7390e16d043f80c653adad0e85dca669e807072ddf191b",
    "$ restrict full4.json --alpha 5 -o u4.json":
        "9177800ccf466aa60a30389aa9e93f236fc90a57d8f4b00fac8bdb06508fc779",
    "$ restrict full4.json --target borel -o b4.json":
        "8405b5880707109278eef495fda52f9a673c069b199c6a1b203c658444650f73",
    "$ verify full4.json --report vf.json":
        "ca8fd22ef52214d53a05bb462e258ae86873350e5b49b52f30e856428e32f97e",
    "$ verify b4.json --report vb.json":
        "8432f5c81de8dfc5bff3135a77e0ea1d7f0a0670e06fc51e4a689fabd9bfc5be",
    "$ verify u4.json --report vu.json":
        "e448e52eac604a58d41b2a98f668b2433c237ac3f1720ba165444c9ce764aaf5",
    "$ verify gapped.json --report vg.json":
        "92101a08b7cb905b854facfe221b892762db05b62c89ad4d7b4b8ca84cabea28",
    "$ analyze full4.json --report af.json":
        "387a705b3cba510c08957a77b8f2f58339b9b7027ef1fcf775ff1ae0cfc97720",
    "$ analyze b4.json --report ab.json":
        "ebad5fb744cec69c24025071a24d487ff73e717a4e94ab8d66cd5c2db2109865",
    "$ analyze u4.json --report au.json":
        "a52626f29369e8d51c35045a9c9217f439adcdb891faa317b27e4a6f10f1d015",
    "$ analyze red4.json --report ar.json":
        "54abac3c195804c2322cc22c23d128500b036c884e201daa62163e8e5810fae8",
    "$ build eval --d 2 --eps -1 --a 3 -o m3.json":
        "40fef05b7e1d772e009d75886da73af6ea1433a7446a6426baad7a718782cbdd",
    "ab.json":
        "bc62bac0485daceacccb05de1741e653adbb1f437ef99c6ba3ff77e4676402de",
    "af.json":
        "6428a4c6d9f9521533d100b1db584623277a1ac8951bec47c6a15a098d29c31c",
    "ar.json":
        "38511a6f36333452e31ebeeb4458bcc095412c4a0b53d37e636d54db7a8c2d6f",
    "au.json":
        "e7ea71e333953166758d739f9deef476bcd5ed6642415197ec4300ef9451ae0b",
    "b4.json":
        "33f0ed0309a6bcc3b0b6d4c0ecc8945e773cf146f7df043faefe8e6dbca7d48d",
    "e6.json":
        "2f8e23e197c1b2247a8b63cb27ff5408853b45b4eadbf4bc50cafc6db8e5f4b7",
    "e8.json":
        "6f7ca7c8c651bcc4a9ac80ac90a2d753770dd5bc75ec51487cf340ede8954778",
    "full4.json":
        "a96fb9bfa1cd6c2426e2c0a879664db6414bdd20ca6882f0552603d03e8e9389",
    "full6.json":
        "ba20268e386bdd797662240f34f68f8712e0930c0f5c409c84852b75db2579de",
    "full8.json":
        "4e700c3a9982f29e93b8ce2f290ab69488213ba6c7aca436afc1a6aeee94bb5b",
    "gapped.json":
        "52e1f8656d9e7d930db1dd3108d83240d0797cb4b214ced5863d6bd1e0e1fb24",
    "m3.json":
        "7133fdcc9f2adb068f3e1816bd7d6c13061e6e6a62ad8e3accfe242d215f965c",
    "r6.json":
        "df4224aa6803a55ec652933e52a05eee3dd28a53ecaed7b2ad2d878352dc9260",
    "r8.json":
        "10c96259c17c03d5ebd0ddd6cbe3ac41e87f67ffecbbc5a50c845bee9abb59b4",
    "red4.json":
        "3fbcf6664e6160cadf3030c4dea77aca4d443a00c1a9f329f13e71699f001e15",
    "t6.json":
        "9fb9b9318af3bbe0e4597904a31838d531a04d1431688dae93c83a0500de53c4",
    "t8.json":
        "2e99cdb19adcc1876629a6a13af5add2dfa8a7094c55564072dc1a41db591391",
    "u4.json":
        "60f7c24fb1b3a7fc8e45664b889f5bf00114a918736e17b197c09b14ced17549",
    "vb.json":
        "87a7e6de8f86523735bc874dbdafed748be5e243052bffa9bfcaccedb767e02b",
    "vf.json":
        "960fe213df9236b5edc46eec793c1da3e228d26178e513615254eb1f9a1f71af",
    "vg.json":
        "70edb8ef832ea46297ff52d254e7ebbd2a964058af2eba48ced5fb2636c02630",
    "vu.json":
        "9cef02d392811ffd11a6e5e8677d7452b381b438aa1a129d5c01bf4152cb90d7",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _eval(d, eps, a, q):
    return evaluation_module(EvalParams(d, eps, F(a)), q)


def _stage_ledgers(tensor_13) -> dict[str, list]:
    """Non-strict logs of the flag, grid and split stages on wrong inputs."""
    r = restrict_to_ugeq0(tensor_13, 1)
    ladder = analyze_ugeq0(r)
    a_mat, astar_mat = build_a_astar(r, CheckLog())
    v, vstar = eigen_flags(r, a_mat, astar_mat, ladder, CheckLog())
    _, w, wstar = build_w_grid(r, ladder, a_mat, astar_mat, v, vstar, CheckLog())
    mirrored = WeightLadder(ladder.alpha, ladder.diameter, ladder.spaces[::-1])
    logs = {name: CheckLog() for name in STAGE_FAILURES}
    eigen_flags(r, a_mat, astar_mat, mirrored, logs["flags(mirrored ladder)"])
    build_w_grid(r, ladder, a_mat, astar_mat, vstar, v, logs["grid(swapped flags)"])
    build_b_bstar(
        r, ladder, a_mat, astar_mat, vstar, v, wstar, w,
        logs["split(swapped spaces)"],
    )
    return {name: [c.to_dict() for c in log.entries] for name, log in logs.items()}


def test_stage_failure_details(tensor_13):
    ledgers = _stage_ledgers(tensor_13)
    for name, expected in STAGE_FAILURES.items():
        failing = [(c["name"], c["detail"]) for c in ledgers[name] if not c["pass"]]
        assert failing == expected, name
    encoded = json.dumps(ledgers, sort_keys=True).encode()
    assert _sha(encoded) == STAGE_LEDGER_SHA256


def _run_cli(capsys, argv, expected_exit):
    assert main(argv) == expected_exit, argv
    return capsys.readouterr().out.encode()


def cli_outputs(tmp_path, monkeypatch, capsys) -> dict[str, bytes]:
    """stdout of each command and the bytes of each file written."""
    monkeypatch.chdir(tmp_path)
    q2, q32 = qparam(2), qparam(F(3, 2))
    full8 = tensor_product(
        tensor_product(_eval(1, 1, 1, q2), _eval(1, 1, 3, q2)), _eval(1, 1, 9, q2)
    )
    write_module(full8, "full8.json")
    write_module(tensor_product(_eval(1, 1, 1, q32), _eval(2, 1, "5/3", q32)),
                 "full6.json")
    write_module(tensor_product(_eval(1, 1, 1, q2), _eval(1, 1, 3, q2)), "full4.json")
    write_module(tensor_product(_eval(1, 1, 1, q2), _eval(1, 1, 4, q2)), "red4.json")
    gapped = {
        "format_version": 1, "presentation": "ugeq0", "q": "2", "dim": 2,
        "action": {"R": [["0", "0"], ["0", "0"]], "L": [["0", "0"], ["0", "0"]],
                   "K": [["1", "0"], ["0", "16"]], "Kinv": [["1", "0"], ["0", "1/16"]]},
        "provenance": "gapped",
    }
    with open("gapped.json", "w") as fh:
        json.dump(gapped, fh)

    runs = [
        (["restrict", "full8.json", "--alpha", "1", "-o", "r8.json"], 0),
        (["extend", "r8.json", "--eps0", "1", "--eps1", "1",
          "--trace", "t8.json", "-o", "e8.json"], 0),
        (["--q", "3/2", "restrict", "full6.json", "--alpha", "2/3", "-o", "r6.json"], 0),
        (["--q", "3/2", "extend", "r6.json", "--eps0", "1", "--eps1", "-1",
          "--trace", "t6.json", "-o", "e6.json"], 0),
        (["restrict", "full4.json", "--alpha", "5", "-o", "u4.json"], 0),
        (["restrict", "full4.json", "--target", "borel", "-o", "b4.json"], 0),
        (["verify", "full4.json", "--report", "vf.json"], 0),
        (["verify", "b4.json", "--report", "vb.json"], 0),
        (["verify", "u4.json", "--report", "vu.json"], 0),
        (["verify", "gapped.json", "--report", "vg.json"], 3),
        (["analyze", "full4.json", "--report", "af.json"], 0),
        (["analyze", "b4.json", "--report", "ab.json"], 0),
        (["analyze", "u4.json", "--report", "au.json"], 0),
        (["analyze", "red4.json", "--report", "ar.json"], 0),
        (["build", "eval", "--d", "2", "--eps", "-1", "--a", "3", "-o", "m3.json"], 0),
    ]
    out = {}
    for argv, expected_exit in runs:
        out["$ " + " ".join(argv)] = _run_cli(capsys, argv, expected_exit)
    for path in sorted(tmp_path.iterdir()):
        out[path.name] = path.read_bytes()
    return out


def test_cli_bytes(tmp_path, monkeypatch, capsys):
    outputs = cli_outputs(tmp_path, monkeypatch, capsys)
    trace = json.loads(outputs["t8.json"])
    assert [(c["name"], c["detail"]) for c in trace["checks"]] == [
        (name, "") for name in LEDGER
    ]
    assert {k: _sha(v) for k, v in outputs.items()} == CLI_SHA256
