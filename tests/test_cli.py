import hashlib
import json
import shlex
from pathlib import Path

import pytest

from ellq.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_group_classes(capsys):
    code, out = run(capsys, "group", "--type", "F4", "--classes", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["order"] == 1152
    assert sum(1 for c in data["classes"] if c["elliptic"]) == 9


def test_group_table(capsys):
    code, out = run(capsys, "group", "--type", "G2", "--table")
    assert code == 0
    assert "phi(2,1)" in out


def test_fake(capsys):
    code, out = run(capsys, "fake", "--type", "G2", "--irrep", "phi(1,6)")
    assert code == 0
    assert "q^6" in out


def test_efd_b(capsys):
    code, out = run(capsys, "efd", "--type", "B", "--n", "4",
                    "--lambda", "2,1,1", "--definitional")
    assert code == 0
    assert "definitional sum agrees: True" in out


def test_efd_json_round_trip(capsys):
    """The --json value reads back, also with Phi_n past 30 in its
    denominator: 1 - q^32 leaves Phi_32 under the B_16 fake degree."""
    from ellq.elliptic import bn_fake_closed
    from ellq.exactq import RationalFunction
    for lam in ((1, 1), (16,)):
        code, out = run(capsys, "efd", "--type", "B", "--n", str(sum(lam)), "--lambda",
                        ",".join(map(str, lam)), "--json")
        assert code == 0
        data = json.loads(out)
        assert RationalFunction.from_json(data["value"]) == bn_fake_closed(lam)


@pytest.mark.parametrize("group", ["G2", "F4"])
def test_efd_sgn_definitional(capsys, group):
    code, out = run(capsys, "--json", "efd", "--type", group, "--definitional")
    assert code == 0
    data = json.loads(out)
    assert data["agree"] is True
    assert data["definitional"] == data["sign-character"]
    code, out = run(capsys, "efd", "--type", group, "--definitional")
    assert code == 0 and "definitional sum agrees: True" in out


def test_efd_sgn(capsys):
    code, out = run(capsys, "efd", "--type", "G2")
    assert code == 0
    assert "(q-1)^2 * Phi5 / (Phi2^2 Phi3 Phi6)" in out


@pytest.mark.parametrize("n_argv, type_argv", [
    (("--type", "A", "--n", "5"), ("--type", "A4")),
    (("--type", "A2", "--n", "3"), ("--type", "A2")),
    (("--type", "B4", "--n", "4"), ("--type", "B4")),
])
def test_efd_n_agreeing_with_type(capsys, n_argv, type_argv):
    assert run(capsys, "--json", "efd", *n_argv) == run(capsys, "--json", "efd", *type_argv)


def test_python_m_ellq(capsys):
    import os
    import subprocess
    import sys

    import ellq
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(ellq.__file__))}
    argv = ["--json", "efd", "--type", "G2"]
    out = subprocess.run([sys.executable, "-m", "ellq", *argv], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0
    assert out.stdout == run(capsys, *argv)[1]


def test_efd_sgn_e8(capsys):
    from ellq.elliptic import sgn_fake_degree
    from ellq.weylgrp import EXPONENTS
    code, out = run(capsys, "--json", "efd", "--type", "E8")
    assert code == 0
    data = json.loads(out)
    f = sgn_fake_degree(EXPONENTS["E8"])
    assert data == {"type": "E8", "sign-character": f.to_json(), "factored": f.factored()}


def test_fourier(capsys):
    code, out = run(capsys, "fourier", "--gamma", "S3")
    assert code == 0
    assert "(g3,1)" in out and "8 pairs" in out


def test_mx(capsys):
    code, out = run(capsys, "mx", "--fixture", "g2-a1-s1")
    assert code == 0
    assert "q * (q-1)^2 / (Phi2^2 Phi3)" in out
    code, _ = run(capsys, "mx", "--fixture", "nonsense")
    assert code == 2


def test_verify_exit_codes(capsys):
    code, out = run(capsys, "verify", "cyc")
    assert code == 0
    assert out.count("PASS") >= 5 and "FAIL" not in out.replace("0 FAIL", "")


def test_verify_discrepancy_does_not_fail(capsys):
    code, out = run(capsys, "verify", "g2-formal")
    assert code == 0
    assert "DISCREPANCY" in out


def test_verify_json_deterministic(capsys):
    code1, out1 = run(capsys, "verify", "sp4", "--json")
    code2, out2 = run(capsys, "verify", "sp4", "--json")
    assert code1 == code2 == 0
    assert out1 == out2
    data = json.loads(out1)
    assert all(r["status"] in ("PASS", "FAIL", "DISCREPANCY") for r in data["reports"])


def test_affine_outputs(capsys):
    code, out = run(capsys, "affine", "g2", "--classes", "--nu", "--ef", "--formal")
    assert code == 0
    assert "A1 x A1" in out and "mu = 1/12" in out


@pytest.mark.parametrize("flags", [(), ("--formal",), ("--json",), ("--json", "--formal")],
                         ids=" ".join)
def test_affine_base_is_read_stripped(capsys, flags):
    # the base is named, checked for --formal and printed as parsed, blanks stripped
    code, out = run(capsys, "affine", " g2 ", *flags)
    assert (code, out) == run(capsys, "affine", "g2", *flags)
    assert code == 0 and "affine  G2" not in out and '" G2' not in out


def test_independence_cli(capsys):
    code, out = run(capsys, "independence", "--type", "B5")
    assert code == 0
    assert "independent: False" in out and "dependency" in out


# the message of an error whose cause is one option, naming it and its value
ERROR_MESSAGES = {
    ("efd", "--type", "A"): "--n required for type A",
    ("efd", "--type", "A", "--n", "0"): "--n 0 is out of range",
    ("efd", "--type", "A", "--n", "1"): "--n 1 is out of range",
    ("efd", "--type", "B", "--lambda", "a"): "--lambda a is not a partition",
    ("efd", "--type", "D", "--lambda", "1"): "--lambda 1 is out of range: its size is 1",
    ("efd", "--type", "D", "--n", "1", "--lambda", "1"):
        "--lambda 1 is out of range: its size is 1",
    ("affine", "c2", "--formal"): "--formal needs the packaged basis, which exists for g2 only, "
                                  "not c2",
    ("affine", "a1", "--formal"): "--formal needs the packaged basis, which exists for g2 only, "
                                  "not a1",
    ("group", "--type", "E6"): "type E6 is supported by efd only",
    ("independence", "--type", "E8"): "type E8 is supported by efd only",
    ("group", "--type", "G3"): "type G3 does not exist: G has rank 2",
    ("group", "--type", "F2"): "type F2 does not exist: F has rank 4",
    ("efd", "--type", "E5"): "type E5 does not exist: E takes rank 6, 7 or 8",
    ("efd", "--type", "E9"): "type E9 does not exist: E takes rank 6, 7 or 8",
    ("fake", "--type", "G2", "--irrep", ""): "G2 has no irreducible labelled ''",
}


@pytest.mark.parametrize("argv", [
    *map(list, ERROR_MESSAGES),
    ["group", "--type", "X"],
    ["group", "--type", "B7"],
    ["verify", "bogus"],
    ["independence", "--type", "B0"],
    ["fourier", "--gamma", "S6"],
    ["affine", "d4"],
    ["efd", "--type", "B", "--lambda", "1,2"],
    ["efd", "--type", "B", "--lambda", "2,-1"],
    ["efd", "--type", "B", "--lambda", "0"],
    ["efd", "--type", "B"],
    ["efd", "--type", "D", "--n", "3", "--lambda", "2,1,1"],
    ["mx", "--fixture", "nope"],
    ["efd", "--type", "B", "--n", "0", "--lambda", "3"],
    ["efd", "--type", "G2", "--lambda", "1,2"],
    ["efd", "--type", "F4", "--lambda", "1"],
    ["efd", "--type", "A", "--n", "3", "--lambda", "9"],
    ["efd", "--type", "A", "--n", "9", "--definitional"],
    ["--fixtures", "/nonexistent", "verify", "appendix-g2"],
    ["fake", "--type", "B3", "--irrep", "nope"],
    ["fourier", "--gamma", "Z2x"],
    ["fourier", "--gamma", "Z2^0"],
    ["fourier", "--gamma", "Z2^-1"],
    ["fourier", "--gamma", "Z2^1"],
    ["efd", "--type", "E8", "--definitional"],
    ["efd", "--type", "G2", "--n", "3"],
    ["efd", "--type", "A2", "--n", "5"],
    ["efd", "--type", "F4", "--n", "4"],
    ["efd", "--type", "E8", "--n", "8"],
    ["affine", "a0"],
    ["affine", "a-1"],
    ["affine", "b0"],
    ["affine", "b3"],
])
def test_unsupported_input_exit_2(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("ellq: error: ")
    assert ERROR_MESSAGES.get(tuple(argv), "") in lines[0]


def test_unknown_suite_lists_every_suite(capsys):
    assert main(["verify", "bogus"]) == 2
    assert capsys.readouterr().err == (
        "ellq: error: unknown suite 'bogus'; choose from ('cyc', 'fourier', 'g2-formal', "
        "'sp4', 'g2-affine', 'independence', 'appendix-g2', 'all')\n")


# sha256 of --json stdout for the outputs that rest on Dixon tables, on the
# formal-degree product or on the cyclotomic rendering of closed forms; each
# was recorded before the code behind it changed
EXCEPTIONAL_OUTPUTS = {
    # Phi_31 and Phi_32 fall into the printed remainders
    ("efd", "--type", "B", "--lambda", "16"):
        "44688765dc94a2ea186059213ffac52748d6711bd9e3c2b56ed6289e4959cc21",
    ("efd", "--type", "D", "--lambda", "9,7"):
        "4f0b772679a48a65738e42d8220aaff6a5267314bda8320368a550d6bec5d276",
    ("efd", "--type", "E8"):
        "e68bb977e8fb0a309cc9049955bd0830d28b1b3e4590092da05c73d9dd90985a",
    # Phi-form sums: terms that cancel to 0, a self-conjugate partition, two
    # terms that share most of their factors, and a long one-row B product
    ("efd", "--type", "D", "--lambda", "2,1"):
        "36791e97394d074fd92a9fb317b5edd193ac35701e1d5598fb29333995cde5bc",
    ("efd", "--type", "D", "--lambda", "4,3,2,1"):
        "cf89cd11f0064690da66add98e4b78e5bace7491e374565b5416cf2196e7f032",
    ("efd", "--type", "D", "--lambda", "12,12"):
        "0beb40a700647525f057938817ed7b6df375a5df484f3b4a44493c98fa07094d",
    ("efd", "--type", "B", "--lambda", "40"):
        "878439483a860fcc55f5e6b194af3714671e70573f98406a255868d12c19d8e2",
    ("group", "--type", "G2", "--table"):
        "2297013f03ef3a1640b59052ca5b529a59cbe530b815031385276b392e728114",
    ("group", "--type", "G2", "--classes"):
        "f04b3482879a31f1df0a07dc4b67e1c9c30e53a5f0a32efd08df84b06bde21dd",
    ("group", "--type", "F4", "--table"):
        "c7d67c98998d87222d54437021749df6848f447f84e0022d7348e37dd3587a9a",
    ("group", "--type", "F4", "--classes"):
        "2fe83db956191b0e7bffe4c9d1a958e66a8eb2bb515779426e524f9d6d5aa3f1",
    ("group", "--type", "A3", "--classes"):
        "20af4ea437fba132ed6566f23b9ea14ff023de10b4dbddd0eb67e1f8afe63e7f",
    ("group", "--type", "A3", "--table"):
        "6a0cb45e555fecb517d83c135abe8e4c910eb8089469e69e67c233a6c6eae77f",
    ("group", "--type", "B3", "--classes"):
        "28ee7a3a373cef53ce5e09ff578b4226b8cf1709a946a5405ac2fcbccccf9d39",
    ("group", "--type", "B3", "--table"):
        "60af8f20579b626af96e27b804f271f9fa3dc02d168e1fbe172dcaa868f5c0bc",
    ("group", "--type", "D4", "--classes"):
        "2af6baae3e5ccc53db8ec9d6db74e5cf18bd83974ebbf0d81b6c182f0e31b5c9",
    ("group", "--type", "D4", "--table"):
        "b7d648fc637b9d77b8c68417721547d7ab27428add300e038999881fab00b43c",
    ("group", "--type", "A7", "--classes"):
        "964f68ab7a2870f98841710b1172db97e6cb1db90553cbffabf3ae795de96782",
    ("group", "--type", "A7", "--table"):
        "0d531066f09f8e3c167654ebae92f75d7ccfc3addc10a9e2b78d0376a2d1adb9",
    ("group", "--type", "B6", "--classes"):
        "156949e22834976160e29ed46f08d062d38baba157e166000e23a0bae484ac0b",
    ("group", "--type", "B6", "--table"):
        "30e3945ef4f72431f0ddf63baf08cefdb80eac0f18db0f6bfbe80b35fec4ee4e",
    # three split types, (6), (4, 2) and (2, 2, 2): both halves of each
    ("group", "--type", "D6", "--classes"):
        "ce6a0a2a02483df63a4e90d54fb59264afc9ca51620e3243ffac7121398f39c0",
    ("group", "--type", "D6", "--table"):
        "d546a0407dac094d4e5ab0d194e397eba9a7907e7a7fba01290931ad9c90e2c4",
    ("fake", "--type", "F4"):
        "a205bbb571de9fe1424edb5573448115d380a1599b023bebd03a5e87dc7d18b9",
    ("fake", "--type", "G2"):
        "29c4279d7f208b2e3f44c4400f4fd3265da0e7be80a2df189e78b7b5840cab89",
    # the fake degrees rest on P(q) alone, where generic degrees and nu would
    # scale together and leave verify all unchanged
    ("fake", "--type", "A5"):
        "c2b2e34ece65baea43a5445da4ca75103a8f2f4b3d101922f8e0e8e6ebd667c9",
    ("fake", "--type", "A6"):
        "792208273cfbf44ddfc6fe44c44fd00a4eccf3001080c3173c7b60ff858a3eee",
    ("fake", "--type", "B5"):
        "f353ee2a474e652798a0830be6187a3f64742be77731f3f134e9c3e2ab6c2c59",
    ("fake", "--type", "D5"):
        "c5e25a7f56c97377a34ca8a6cdbf269c6dd076658058221dbcb6e61dcc4a42ae",
    ("group", "--type", "A5", "--classes"):
        "75396b1b1face9a6db53118439c12989cd492fba1d9688c59634d7eda9a9dca1",
    ("group", "--type", "B5", "--classes"):
        "c18a7be126eec9bbc6b9eaf861906a66a234a8c3f84546a59d20c9325958b248",
    ("group", "--type", "D5", "--classes"):
        "fee6ca04771578a148ac411e9890317946efcbbc39d25cc145a08b8518610b65",
    ("efd", "--type", "G2", "--definitional"):
        "1e397538855388da67a475bbf07510e0f38997f887b91fb5959902dbc74482f5",
    ("efd", "--type", "F4", "--definitional"):
        "e3c987afbe74c303f2e4c9a4774a82fd0ba6e4bc034e17c21bad938c37ac61ea",
    ("efd", "--type", "A5", "--definitional"):
        "871732c5c7d17aec0c22fb56004cdfdd4c00c7c6450bd1daeaf3ee8dba36de0f",
    ("efd", "--type", "B", "--lambda", "3,2", "--definitional"):
        "eb70c071d6151fca02fdfa37b50d774c710e1ecf21de3495ba5bfa437682e36e",
    ("efd", "--type", "D", "--lambda", "3,2", "--definitional"):
        "0afe574af2479ed27a9b5f9fc14ab3e1b9ee9ef697db27930c6eb98d77fb9a83",
    # the rank of 1/det(1 - qw) over the elliptic classes, with its dependencies
    ("verify", "independence"):
        "e96c161e880ae5b309b158fba98900a55ef901582af211b38eebf2c0b5b8de6b",
    ("independence", "--type", "A1"):
        "05e24c4344ae18e4b3e1fceaeb062a5482f8bbee4042ccff5a81e7c0dd156485",
    ("independence", "--type", "A2"):
        "6a02d0ba8330b91c2c58155c6d57e822d781c4ad991a266f7c23576e0b705273",
    ("independence", "--type", "A3"):
        "47dcf52cc1272266c4f772820ee239c00d377f53b3570bf792d2871db4b22c29",
    ("independence", "--type", "A4"):
        "952995f123754f33dbe647f8676912608e4ef9b01697d97eb1d01865f9015aca",
    ("independence", "--type", "A5"):
        "2743a90a672f53d56cbb0a3d31ea564549fe893a05cdeef83140b68a405471ed",
    ("independence", "--type", "A6"):
        "3cb845208ebb69537119fb79e0efd3b8d36b06f6236bfd491982cc49dc4e4cbf",
    ("independence", "--type", "A7"):
        "03756f79be74e15f94c5eae960ae89447041b03dda3b962a43cd0b539038418f",
    ("independence", "--type", "B1"):
        "95084017d649805ef5e8fdc91a43c272fe816444082f24624c3be69f21f34299",
    ("independence", "--type", "B2"):
        "618036fdc55703b91fc5a60c528720c4d711b7a77a2e181e835624e0bd3a757c",
    ("independence", "--type", "B3"):
        "9d2c685cbda3254991aa390466e471a4e883b0161a1d05ad331f4ef10e68e507",
    ("independence", "--type", "B4"):
        "8fbfe222aa6d25b4cae8d4b3ebbcea0badb0fe71cb5f6a01bc81f64462cab66d",
    ("independence", "--type", "B5"):
        "4d3d822ad48db30ac22d88c85c3aa19447d711d5974f8a31597222929f997ef8",
    ("independence", "--type", "B6"):
        "f7beb6594f2d936c47b2e651a08f3775f0cee7dcec4da720b1ef396fe2d192f7",
    ("independence", "--type", "D2"):
        "8203f46135f2cc8fcf3f2e89671196457cbd504160bc605872895cf40314b590",
    ("independence", "--type", "D3"):
        "8bdadf1e34cdd10277634e7bdba9892601c98dcd26838e06811e5198df2cc9a2",
    ("independence", "--type", "D4"):
        "2fa9c087d5d0188433f4fc51209f03fc4b52c41f50fc37f0cdab029a87e517a8",
    ("independence", "--type", "D5"):
        "e3654ba5bdb2e5e176e5402f421ab4b9e7817a6413f5ce9d944d9f78b4232cd8",
    ("independence", "--type", "D6"):
        "7e14e53a95a19536c884ac6011821938f132640860eed0a4bcc5017b6486ebac",
    ("independence", "--type", "G2"):
        "24fa7678b5a81c7a00093cf3ac65820bb328be5aef008b6e2329b1d3308f0790",
    ("independence", "--type", "F4"):
        "d75381beac1926328d888f9d17b511248961bd497c28e26f833f102099c6f33e",
    ("mx", "--fixture", "a1-reg"):
        "c986c72c63df651770b6c4d5efb0c78d5ea8a9dd451f7110527c77468bdb8013",
    ("mx", "--fixture", "g2-a1-g2"):
        "9cc50b6e072b00b5127d042c628f2fe3b8d0b85ba0f463e853aeb8f62e43c050",
    ("mx", "--fixture", "g2-a1-g3"):
        "b970183787502f582498540acbd709405746d70fa0bc6c0061201dd886ed04b5",
    ("mx", "--fixture", "g2-a1-s1"):
        "d652b13ec54f7061412d9814b7a8a50a141063f7b364dac0d45a68e02b384a7d",
    ("mx", "--fixture", "g2-reg"):
        "4f9d65969ebbecc6160312deea02ea4e563393519383ee7d2e9ecc485caf6486",
    ("mx", "--fixture", "sp4-22-s1"):
        "574f3c4ae89242bb3d100a52d3623a67b8b508205bc438b8e04184a6e0442e07",
    ("mx", "--fixture", "sp4-22-tau"):
        "15e07a5e8e3c27ef511e7c3611615db780eda437768e28d1bd37e3a47254d0f9",
    ("mx", "--fixture", "sp4-4"):
        "c51c67a6d6f6b34cd49c4b94d0b2e2fa3a766f1e32f6a932680a4a97e2d4adb2",
    ("fourier", "--gamma", "S5"):
        "d57f5f1a1c5ae76d22acab455dd6672c890bcf7250df5592c40b50ddd66a569c",
    ("fourier", "--gamma", "trivial"):
        "b26e85ab964f2736eb7a9d542b18e19ef831d9fa5e1287b9d4a4bab808e12285",
    ("fourier", "--gamma", "Z2"):
        "621a061701ff1ce602a6a89f0be0eec36f22f551067fa47e142510df93dd83bc",
    ("fourier", "--gamma", "Z2^2"):
        "4980a65972e98221b999fb230e3fa19abc6b282eb52799d120794ff8e41794b4",
    ("fourier", "--gamma", "Z2^3"):
        "b8d0f1b78c87113a7fd61316552c93b56391b7eff1c62da69740f934e2025e60",
    ("fourier", "--gamma", "Z2^4"):
        "f072d25dc57ee7ada19f517083c2b1016cf3c60d5eed20950729c09dedf717b6",
    ("fourier", "--gamma", "S3"):
        "34ca8ac0453ca0454563d604113e08a3734238924514e8acb83a40c37d52b1ab",
    ("fourier", "--gamma", "S4"):
        "338774a434870ca9580ba3a7d294d1b415ee7fcbfdc2ccdc74fe683b4df8ac51",
    ("verify", "fourier"):
        "d62934f7be0d70f2d482fd8e83f04b36756be7cf197cfba0c464d5558f96cfb4",
    # the conjecture suites and the whole report, recorded before the
    # transform-side prediction was computed from the fake degrees alone
    ("verify", "all"):
        "2281be3cd8839f1efa9e310a4124ae47938a97b6978e444617c26febf594315f",
    ("verify", "g2-formal"):
        "7824b8e90fd5e435110ba0346f4ff501f135dfb89c6f4f2cae9b6789abdc8d6a",
    ("verify", "sp4"):
        "73127c1f1cf6de82dfdbf4567a436ba2858acda9e0aac8cbe1ea16d6f1cdda65",
    ("verify", "appendix-g2"):
        "43d1d703475aaac1f5a6c73c024652b75bfa679263797e1909b12aba644e4b8c",
    ("verify", "g2-affine"):
        "521aa1897c5421e06e71bd023c07095dee68e3c396ac5d652c41c3cf47847517",
    ("affine", "g2", "--classes", "--nu", "--ef", "--formal"):
        "b1fc858f1fdf5bdf2a64e2c04c349de967c3eb5397d11eaeb12b1f9edc3a67ec",
    ("affine", "c2", "--classes", "--nu", "--ef"):
        "5264d0d7a38228588ba78abe944431640b2c95d2f346ef3cfd189e50118d68c3",
    ("affine", "a1", "--classes", "--nu", "--ef"):
        "703fda01dbeaee59f77185ae200ce38901f6a183b5374bb7807a883c0d44f782",
}


@pytest.mark.parametrize("argv", list(EXCEPTIONAL_OUTPUTS), ids=" ".join)
def test_exceptional_outputs_pinned(capsys, argv):
    code, out = run(capsys, "--json", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == EXCEPTIONAL_OUTPUTS[argv]


def test_f4_table_under_python_o():
    """python -O strips asserts; the exactness checks of the Dixon table are
    raises, so the table and its pin are the same without them."""
    import os
    import subprocess
    import sys

    import ellq
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(ellq.__file__))}
    argv = ("group", "--type", "F4", "--table")
    out = subprocess.run([sys.executable, "-O", "-m", "ellq", "--json", *argv], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0
    assert hashlib.sha256(out.stdout.encode()).hexdigest() == EXCEPTIONAL_OUTPUTS[argv]


def test_verify_fourier_under_python_o():
    """The Fourier blocks and their centralizer tables are built and checked
    with raises, never asserts: under python -O the fourier suite gives its
    pinned output."""
    import os
    import subprocess
    import sys

    import ellq
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(ellq.__file__))}
    argv = ("verify", "fourier")
    out = subprocess.run([sys.executable, "-O", "-m", "ellq", "--json", *argv], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0
    assert hashlib.sha256(out.stdout.encode()).hexdigest() == EXCEPTIONAL_OUTPUTS[argv]


def test_ef_matrix_is_built_once_per_group(capsys):
    # verify all applies the transform on the three maximal parahorics of
    # affine G2 (G2, A1 x A1, A2): one ef_matrix each, however often asked
    from ellq import fourier
    fourier.ef_matrix.cache_clear()
    assert run(capsys, "--json", "verify", "all")[0] == 0
    info = fourier.ef_matrix.cache_info()
    assert (info.misses, info.hits) == (3, 7)


def test_g2_elliptic_fake_degrees_are_computed_once(monkeypatch):
    # the g2-affine and appendix-g2 suites read the elliptic fake degrees of
    # the same three G2 basis modules: each is computed once per process
    from ellq import affine, report
    calls = []
    elliptic_fake_degree = affine.elliptic_fake_degree
    monkeypatch.setattr(affine, "elliptic_fake_degree",
                        lambda W, values: calls.append(W) or elliptic_fake_degree(W, values))
    report._g2_elliptic_fakes.cache_clear()
    report.run_verify("all")
    assert len(calls) == 3


def test_exceptional_outputs_need_no_gcd():
    """Every rational function of these commands, verify all among them, is
    built and combined from its Phi-exponents: a fresh interpreter whose
    poly_gcd raises gives every pin."""
    import os
    import subprocess
    import sys

    import ellq
    argvs = list(EXCEPTIONAL_OUTPUTS)
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(ellq.__file__))}
    code = ("import contextlib, hashlib, io, json, sys\n"
            "import ellq.exactq as exactq\n"
            "def refuse(*args):\n"
            "    raise AssertionError('poly_gcd called')\n"
            "exactq.poly_gcd = refuse\n"
            "from ellq.cli import main\n"
            "shas = []\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    with contextlib.redirect_stdout(io.StringIO()) as out:\n"
            "        assert main(['--json', *argv]) == 0, argv\n"
            "    shas.append(hashlib.sha256(out.getvalue().encode()).hexdigest())\n"
            "print(json.dumps(shas))\n")
    out = subprocess.run([sys.executable, "-c", code, json.dumps(argvs)], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == [EXCEPTIONAL_OUTPUTS[argv] for argv in argvs]


def test_ellq_loads_neither_dataclasses_nor_inspect():
    """A fresh interpreter that imports every ellq module and runs a verify
    suite loads neither dataclasses nor inspect, which with the modules they
    pull in cost about 15 ms of every command's start-up, beyond what a bare
    interpreter has loaded."""
    import os
    import subprocess
    import sys

    import ellq
    package = Path(ellq.__file__).resolve().parent
    modules = sorted(f"ellq.{p.stem}" for p in package.glob("*.py") if p.stem != "__main__")
    env = {**os.environ, "PYTHONPATH": str(package.parent)}
    listing = "print(' '.join(sorted(sys.modules)))\n"
    code = ("import contextlib, importlib, io, sys\n"
            "for name in sys.argv[1:]:\n"
            "    importlib.import_module(name)\n"
            "from ellq.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(['--json', 'verify', 'cyc']) == 0\n" + listing)
    loaded = []
    for argv in (["-c", "import sys\n" + listing], ["-c", code, *modules]):
        out = subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        loaded.append(set(out.stdout.split()))
    bare, used = loaded
    assert len(modules) == 13 and set(modules) <= used
    assert not {"dataclasses", "inspect"} & (used - bare)


NO_DIVISION_GROUPS = (("G2", "G2"), ("F4", "F4"), ("A5", "A5"),
                      ("B5", "B --lambda 3,2"), ("D5", "D --lambda 3,2"))


def test_weyl_class_sums_need_no_polynomial_division():
    """Every det(1 - qw) is kept as its Phi-exponents, so the fake degrees,
    elliptic fake degrees, independence ranks and class lists of these groups
    divide no polynomial: a fresh interpreter whose QPolynomial.__divmod__
    raises gives the pins."""
    import os
    import subprocess
    import sys

    import ellq
    argvs = [argv for group, efd in NO_DIVISION_GROUPS
             for argv in (("fake", "--type", group), ("group", "--type", group, "--classes"),
                          ("independence", "--type", group),
                          ("efd", "--type", *efd.split(), "--definitional"))]
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(ellq.__file__))}
    code = ("import contextlib, hashlib, io, json, sys\n"
            "from ellq.exactq import QPolynomial\n"
            "def refuse(*args):\n"
            "    raise AssertionError('QPolynomial.__divmod__ called')\n"
            "QPolynomial.__divmod__ = refuse\n"
            "from ellq.cli import main\n"
            "shas = []\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    with contextlib.redirect_stdout(io.StringIO()) as out:\n"
            "        assert main(['--json', *argv]) == 0, argv\n"
            "    shas.append(hashlib.sha256(out.getvalue().encode()).hexdigest())\n"
            "print(json.dumps(shas))\n")
    out = subprocess.run([sys.executable, "-c", code, json.dumps(argvs)], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == [EXCEPTIONAL_OUTPUTS[argv] for argv in argvs]


def _readme_commands() -> list[list[str]]:
    """The `ellq ...` lines of README's "Command line" block, comments cut."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line.split("#", 1)[0])[1:]
            for line in block.splitlines() if line.startswith("ellq ")]


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_commands_run(capsys, argv):
    assert run(capsys, *argv)[0] == 0


@pytest.mark.parametrize("argv", [
    ["group", "--type", "g2", "--classes"],
    ["independence", "--type", "f4"],
])
def test_lowercase_group_names(capsys, argv):
    code, out = run(capsys, "--json", *argv)
    assert code == 0
    assert run(capsys, "--json", *[a.upper() if a in ("g2", "f4") else a for a in argv]) == (0, out)


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["group"])  # missing --type
    assert exc.value.code == 2


def test_mx_help_lists_every_fixture_id(capsys, monkeypatch):
    from ellq.cli import _MX_IDS
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(["mx", "--help"])
    assert exc.value.code == 0
    words = capsys.readouterr().out.split()
    assert [i for i in _MX_IDS if i not in words] == []


def test_fixtures_dir_override(capsys, tmp_path):
    # a fixtures directory takes precedence over the packaged tables: corrupt
    # one denominator and the cyc suite must fail with exit code 1
    import json as _json
    from importlib import resources
    with resources.files("ellq.data").joinpath("appendix_tables.json").open() as fh:
        data = _json.load(fh)
    data["cyc"]["G2"] = {"2": 1}
    (tmp_path / "appendix_tables.json").write_text(_json.dumps(data))
    try:
        code, out = run(capsys, "verify", "cyc", "--fixtures", str(tmp_path))
        assert code == 1
        assert "FAIL" in out
    finally:
        from ellq.fixtures import set_fixtures_dir
        set_fixtures_dir(None)
    code, out = run(capsys, "verify", "cyc")
    assert code == 0


def test_fixtures_override_ends_with_its_call(capsys, tmp_path):
    # a call without --fixtures reads the packaged tables, whatever the call
    # before it read: no reset in between
    from importlib import resources
    with resources.files("ellq.data").joinpath("appendix_tables.json").open() as fh:
        data = json.load(fh)
    data["cyc"]["G2"] = {"2": 1}
    (tmp_path / "appendix_tables.json").write_text(json.dumps(data))
    assert run(capsys, "--fixtures", str(tmp_path), "verify", "cyc")[0] == 1
    assert run(capsys, "verify", "cyc")[0] == 0


def _fixtures_row(n: str) -> str:
    """A tables file with one G2 row whose encoded numerator N is n."""
    return ('{"cyc": {}, "aux": {"p": [1, 2]}, "tables": {"G2": [{"orbit": "G2", '
            f'"phi": "1", "N": {n}}}]}}}}')


@pytest.mark.parametrize("content, key", [
    ("[1, 2]", ""), ("7", ""), ('{"cyc": []}', "cyc"), ('{"cyc": {"G2": 5}}', "cyc"),
    ("{}", "cyc"), ("not json", ""), (_fixtures_row("5"), "tables.G2[0]"),
    ('{"cyc": {"G2": {"2": "x"}}, "aux": {}, "tables": {}}', "cyc.G2"),
    ('{"cyc": {"G2": {"two": 1}}, "aux": {}, "tables": {}}', "cyc.G2"),
    ('{"cyc": {}, "aux": {"p": [1, "x"]}, "tables": {}}', "aux.p"),
    (_fixtures_row('{"phi": {}, "qpow": 0, "sign": 1, "aux": [9999]}'), "tables.G2[0].N.aux"),
    (_fixtures_row('{"phi": {}, "qpow": 0, "sign": 1, "aux": ["q"]}'), "tables.G2[0].N.aux"),
    (_fixtures_row('{"phi": {"5": "1"}, "qpow": 0, "sign": 1}'), "tables.G2[0].N.phi"),
    (_fixtures_row('{"phi": {}, "qpow": 1.5, "sign": 1}'), "tables.G2[0].N.qpow"),
    (_fixtures_row('{"phi": {}, "qpow": 0}'), "tables.G2[0].N.sign"),
    (_fixtures_row('{"phi": {}, "qpow": 0, "sign": 1, "scalar": "2"}'),
     "tables.G2[0].N.scalar"),
], ids=["list", "number", "cyc-list", "cyc-entry", "empty", "not-json", "row-N",
        "cyc-leaf", "cyc-key", "aux-entry", "aux-ref-int", "aux-ref-missing", "N-phi",
        "N-qpow", "N-sign", "N-scalar"])
def test_malformed_fixtures_file_exit_2(capsys, tmp_path, content, key):
    from ellq.fixtures import set_fixtures_dir
    file = tmp_path / "appendix_tables.json"
    file.write_text(content)
    try:
        assert main(["--fixtures", str(tmp_path), "verify", "cyc"]) == 2
    finally:
        set_fixtures_dir(None)
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("ellq: error: ")
    assert str(file) in lines[0] and "Traceback" not in captured.err
    if key:
        assert f"{file}: {key} is missing or out of shape" in lines[0]


def test_fixtures_e8_regular_row_is_checked(capsys, tmp_path):
    # the appendix suite builds the regular row of each exceptional table
    # from its encoding: one more power of q in the E8 row must fail it
    from importlib import resources
    with resources.files("ellq.data").joinpath("appendix_tables.json").open() as fh:
        data = json.load(fh)
    next(r for r in data["tables"]["E8"] if r["orbit"] == "E8")["N"]["qpow"] += 1
    (tmp_path / "appendix_tables.json").write_text(json.dumps(data))
    code, out = run(capsys, "--json", "--fixtures", str(tmp_path), "verify", "appendix-g2")
    status = {r["check"]: r["status"] for r in json.loads(out)["reports"]}
    assert code == 1
    assert [c for c, s in status.items() if s != "PASS"] == ["appendix-regular/E8"]
    assert status["appendix-regular/E8"] == "FAIL"
