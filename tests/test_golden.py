"""Golden outputs: every file the pipeline's commands write at a small
config, pinned by its sha256.

``synth``, ``analyze``, ``compare --emit-curve``, ``fit-z0 --emit-curve``,
``theory`` and ``epsilon`` (each Drude and ``--material``), ``electro`` at
0.31 V and ``calibrate-k`` (on ``oracles.generate_stiffness_scans`` at the
config's seed) run through click's ``CliRunner`` at ``conftest.FAST_CONFIG``
(2 scans of 120 points, a 40-node theory cache, seed 11), and ``synth
--seed 5`` plus ``analyze`` run at the default config (27 scans of 982
points), the benchmark's ``campaign-default`` run. Criterion 10 checks that
one commit reproduces its own bytes; this test checks that a refactor which
claims byte-identical outputs reproduces the bytes of the commit before it,
and it passes on both.

A documented re-baseline updates the pins: a change that moves the outputs
on purpose (the exact sphere-plane electrostatics in the forward model, an
inverse-variance z0, a fitted residual potential) or a numpy upgrade that
moves their last bits. It lists the old and new digests in CHANGES.md.
"""

import hashlib

from click.testing import CliRunner

from casimirlab.assemble import electrostatic_config
from casimirlab.cli import main
from casimirlab.config import parse_config
from casimirlab.forcecurve import save_scan
from oracles import generate_stiffness_scans
from conftest import FAST_CONFIG, TABLE

GOLDEN = {
    "analysis/mean_curve.csv": "ac2aada8fd6a2a19ed4afe57645e82f43d43d6c11c183d4dcf821eb723e3a8c6",
    "analysis/results.json": "d895fb569f74a698697bcfd9d4f18d960e02348110a103ed5711b0b9acbb0af1",
    "calibrate_k.json": "a6083d1815fdf63b32893ace3ed3c20e6861c1bbcfe8fbae2e62e246094fa68b",
    "campaign/cal_00.csv": "5d58cefe40427e7ec95642f95e56b756f51282e8e21d666c5ab345c51c985e84",
    "campaign/cal_01.csv": "4570b2fd4a5eb114b0e4ba3ef2e45716a08d3ca8c8766f2cdc80592ff78cc6b4",
    "campaign/cal_02.csv": "f181ab3485dc515cab2dea925ef85b7ce779d0a66f66b2ccbd051ed5d247d157",
    "campaign/cal_03.csv": "8d76140f74d36abff999443b5c36a50a658fcd49fbcfffc563176a63b876590f",
    "campaign/cal_04.csv": "1fb314c076ba9e8f39599840a078dda0ff4e462f071f84fdf09faecae0231930",
    "campaign/cal_05.csv": "968b1ffad5357066a98046ada9fa49e7130e5408369a47303ffbe6fa5ed9ad3e",
    "campaign/manifest.txt": "c83e27446f385236cb689a24a1a3114a7eff19132055106bd28be458882def28",
    "campaign/scan_000.csv": "8ca7d56d5440341a137d5c414846e8758837ad777b550a7dcf0493ea73fafe0b",
    "campaign/scan_001.csv": "245bc6cffbc9cef6c88d4ae9c4191bd2a283d33a9c90a9532472bf6384356e6f",
    "campaign/truth.json": "afd603a0d4eed57cc7cdbfab2827ef042fc242445beca98e2002daebf831fdcc",
    "compare.curve.csv": "041bede4c3b601ef557aea9eeb50305f53009bdc60c09ca2d5d888f62b640482",
    "compare.json": "5750acc85d9127070a42a23f7dc829ac313e443d6cee6b38f188c4e698ddef58",
    "electro.csv": "c7ed03b3eed8ac7b20b2551b78e62e09fa393ca1bc475b6ced5e0f89a122e4fd",
    "epsilon_drude.csv": "440c1fed4c34fd490a7a7274e35f835668c3ca70e0d772be5b47750f772c5e3a",
    "epsilon_table.csv": "6d147c43358c1c961b65acf71ee18f82a93e3449e4a4938fc6302a68d471e82d",
    "fit_z0.curve.csv": "dc310db595dc5f0db017d5dc60ff602338ead0b7c0e0c1e22c34c413b549ba60",
    "fit_z0.json": "2b474b75c1c7d6108f6df6018b016b6fa6f4e4640f13313aca5606f0dd47ed9a",
    "theory_drude.csv": "9b8d4c79d95bb1d28d0c5a450fc42c87d5cea8ab0d986b07ee2d6790e5a8327b",
    "theory_table.csv": "df99262e5b84f4f38e236bc763e3b2cb1f4ec3ab68b9df3d16999902b02b697a",
}

DEFAULT_CONFIG_GOLDEN = {
    "results/mean_curve.csv": "b7ba915641bf00c5c8cc8fe1c3138064d79915b7e186192c0d3872cf877f29ef",
    "results/results.json": "344b06910fdb43c0a2fb30b97dcba69774da284ab0ced6cfac50b900511860dc",
}


def commands(d):
    """The argument lists, in order, each reading what the ones before wrote."""
    cfg = str(d / "run.cfg")
    campaign, analysis = str(d / "campaign"), d / "analysis"
    return [
        ["synth", "--config", cfg, "--out", campaign],
        ["analyze", "--scans", campaign, "--config", cfg, "--out", str(analysis)],
        ["compare", "--curve", str(analysis / "mean_curve.csv"), "--emit-curve",
         "--config", cfg, "--out", str(d / "compare.json")],
        ["fit-z0", "--scan", str(d / "campaign" / "cal_00.csv"), "--emit-curve",
         "--config", cfg, "--out", str(d / "fit_z0.json")],
        ["theory", "--config", cfg, "--out", str(d / "theory_drude.csv")],
        ["theory", "--material", TABLE, "--config", cfg, "--out", str(d / "theory_table.csv")],
        ["epsilon", "--config", cfg, "--out", str(d / "epsilon_drude.csv")],
        ["epsilon", "--material", TABLE, "--config", cfg,
         "--out", str(d / "epsilon_table.csv")],
        ["electro", "--voltage", "0.31", "--config", cfg, "--out", str(d / "electro.csv")],
        ["calibrate-k", "--scans", str(d / "stiff"), "--config", cfg,
         "--out", str(d / "calibrate_k.json")],
    ]


def written_digests(d):
    """{path relative to d: sha256} of every file the commands write into d."""
    (d / "run.cfg").write_text(FAST_CONFIG)
    cfg = parse_config(FAST_CONFIG)
    (d / "stiff").mkdir()
    for scan in generate_stiffness_scans(cfg, electrostatic_config(cfg)):
        with open(d / "stiff" / f"{scan.scan_id}.csv", "w") as fh:
            save_scan(scan, fh)
    inputs = {d / "run.cfg", *(d / "stiff").iterdir()}
    return digests_after(d, commands(d), inputs)


def digests_after(d, argvs, inputs=()):
    """{path relative to d: sha256} of every file under d but ``inputs`` after
    the commands ``argvs`` ran, in order."""
    runner = CliRunner()
    for args in argvs:
        result = runner.invoke(main, args)
        assert result.exit_code == 0, (args[0], result.output)
    return {p.relative_to(d).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(d.rglob("*")) if p.is_file() and p not in inputs}


def test_every_written_file_matches_its_pinned_digest(tmp_path):
    assert written_digests(tmp_path) == GOLDEN


def test_the_default_config_analysis_matches_its_pinned_digests(tmp_path):
    campaign, results = str(tmp_path / "campaign"), str(tmp_path / "results")
    digests = digests_after(tmp_path, [["synth", "--seed", "5", "--out", campaign],
                                       ["analyze", "--scans", campaign, "--out", results]])
    assert {k: v for k, v in digests.items() if k.startswith("results/")} == DEFAULT_CONFIG_GOLDEN
