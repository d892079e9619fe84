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
    "analysis/mean_curve.csv": "b327565b1ee264c75bd0da1b4557ad90b143fcc461ab46fe6ebb04c54d1eb6d4",
    "analysis/results.json": "5e6e06326613bd1185f61147942731a39e5d69b567c527b90c312f234e65b471",
    "calibrate_k.json": "ef0b68af4e06d5fefda48bc3dcba6fa8619089506c08ca0efb63c129b26588cb",
    "campaign/cal_00.csv": "5d58cefe40427e7ec95642f95e56b756f51282e8e21d666c5ab345c51c985e84",
    "campaign/cal_01.csv": "4570b2fd4a5eb114b0e4ba3ef2e45716a08d3ca8c8766f2cdc80592ff78cc6b4",
    "campaign/cal_02.csv": "f181ab3485dc515cab2dea925ef85b7ce779d0a66f66b2ccbd051ed5d247d157",
    "campaign/cal_03.csv": "8d76140f74d36abff999443b5c36a50a658fcd49fbcfffc563176a63b876590f",
    "campaign/cal_04.csv": "1fb314c076ba9e8f39599840a078dda0ff4e462f071f84fdf09faecae0231930",
    "campaign/cal_05.csv": "968b1ffad5357066a98046ada9fa49e7130e5408369a47303ffbe6fa5ed9ad3e",
    "campaign/manifest.txt": "56efa3fdab65e77be94c4d7d9a7d175ce263a57fbce0da5c2ca34991a494060b",
    "campaign/scan_000.csv": "8ca7d56d5440341a137d5c414846e8758837ad777b550a7dcf0493ea73fafe0b",
    "campaign/scan_001.csv": "245bc6cffbc9cef6c88d4ae9c4191bd2a283d33a9c90a9532472bf6384356e6f",
    "campaign/truth.json": "afd603a0d4eed57cc7cdbfab2827ef042fc242445beca98e2002daebf831fdcc",
    "compare.curve.csv": "61e0980e900fa3c915adda4faa0867aaa360da466ef25e6b0ca550aaf79fff98",
    "compare.json": "80b5f93a261e6dd2ec1b25b42b498dcb04869beb160d6c82fb6db135d1779857",
    "electro.csv": "6e019f10ed4d3c6e537481312c186dbbfe8bad2277309ee80f0bbb080c762372",
    "epsilon_drude.csv": "736e867cdc7f17d3fbe0b3f954d67e624f143d3042ec3cc67ffbce83884cd72e",
    "epsilon_table.csv": "ae7a381b3b1243ee300e49b50b59736f13ea2e2edcaf71cf6ff8ab8e973fc15c",
    "fit_z0.curve.csv": "35265b447ce107ecce24238c7c3f9cdf1cbddc77c13e08e4c566c0d46287277e",
    "fit_z0.json": "02bcb3941f27cf1f26a19fd9338fcb57be995613cebc7ff5efc22f31906e694d",
    "theory_drude.csv": "4a46124d0617eb620d5eca234158e0d1bc7933a94203ad5286b3ec4a0fbedb3f",
    "theory_table.csv": "78f2fac45ded939278c4bbee98d0dead6155d0a5f136f544f9085c83f03a38e9",
}

DEFAULT_CONFIG_GOLDEN = {
    "results/mean_curve.csv": "2e79f25eb5e844c08bb1243d868f8b1ed154373b7c679b7986260351a8d5b5a3",
    "results/results.json": "e394a1078e30ec2e3596e511790233b405a05c9f27d0452be19de29073a64a87",
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
