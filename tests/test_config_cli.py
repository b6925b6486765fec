"""Config grammar, schema validation, and the command-line harness."""

import ast
import inspect
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import klslab
from klslab import __version__, cli, config, needles, walks
from klslab.bodies import AxisCube, Ball
from klslab.config import (ConfigError, ExperimentConfig, make_body,
                           make_density, make_tracked_sets, parse_config,
                           parse_set_descriptor)
from klslab.densities import Boltzmann, Exponential, Gaussian, Uniform
from klslab.rng import RngStream


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    for name in ("CONFIG", "SEED", "OUT", "THREADS"):
        monkeypatch.delenv(cli.ENV_PREFIX + name, raising=False)


SAMPLE_CFG = """\
[experiment]
seed = 1
[body]
kind = "cube"
n = 2
[walk]
exact = true
n_samples = 50
"""

# dfk on a ball is exact with zero phases, so this runs in milliseconds
VOLUME_CFG = """\
[body]
kind = "ball"
n = 3
[schedule]
method = "dfk"
"""


# ---------------------------------------------------------------------------
# grammar


def test_full_grammar_roundtrip():
    text = """
# full-line comment
[experiment]
subcommand = "sample"   # trailing comment
seed = 42
out = "results"
threads = 4

[body]
kind = "ball"
n = 3
radius = 2.5

[walk]
exact = false
thin = 2
delta = 1e-1

[schedule]
c = [1, -0.5, 2e-3]

[sloc]
sets = ["halfspace 0 0.0", "ball 1.5"]
closed_form = true
"""
    cfg = parse_config(text)
    assert cfg.subcommand == "sample"
    assert cfg.seed == 42 and cfg.out == "results" and cfg.threads == 4
    assert cfg.body == {"kind": "ball", "n": 3, "radius": 2.5}
    assert cfg.walk == {"exact": False, "thin": 2, "delta": 0.1}
    assert cfg.walk["exact"] is False
    assert cfg.schedule["c"] == [1, -0.5, 0.002]
    assert isinstance(cfg.schedule["c"][0], int)
    assert isinstance(cfg.schedule["c"][1], float)
    assert cfg.sloc["sets"] == ["halfspace 0 0.0", "ball 1.5"]
    assert cfg.sloc["closed_form"] is True


def test_empty_config_gives_defaults():
    cfg = parse_config("")
    assert cfg.subcommand is None
    assert cfg.seed == 0 and cfg.out == "." and cfg.threads == 1
    for section in ("body", "density", "walk", "schedule", "sloc",
                    "needles", "cutplane", "isotropy"):
        assert getattr(cfg, section) == {}


def test_reopening_a_section_merges_keys():
    cfg = parse_config('[body]\nn = 2\n[walk]\nthin = 1\n[body]\nkind = "cube"\n')
    assert cfg.body == {"n": 2, "kind": "cube"}
    with pytest.raises(ConfigError, match="duplicate key 'n'"):
        parse_config("[body]\nn = 2\n[body]\nn = 3\n")


def test_all_errors_reported_at_once_with_line_numbers():
    text = """stray = 1
[nope]
k = 3
[body
[body]
n = "two"
n = 2
n = 3
radius = [1,
kind = "open
half_width = 1e999
whoops = 5
just words
half_width = maybe
[schedule]
c = []
eps = -1
"""
    with pytest.raises(ConfigError) as exc_info:
        parse_config(text)
    errors = exc_info.value.errors
    expected = [
        (1, "entry 'stray' outside any known section"),
        (2, "unknown section [nope]"),
        (3, "entry 'k' outside any known section"),
        (4, "malformed section header"),
        (6, "[body] n must be integer >= 1, got 'two'"),
        (8, "duplicate key 'n' in [body]"),
        (9, "unterminated list"),
        (10, "unterminated string"),
        (11, "non-finite number"),
        (12, "unknown key 'whoops' in [body]"),
        (13, "expected key = value"),
        (14, "cannot parse value 'maybe' (strings must be quoted)"),
        (16, "empty list"),
        (17, "[schedule] eps must be positive number, got -1"),
    ]
    assert len(errors) == len(expected)
    for err, (line_no, fragment) in zip(errors, expected):
        assert err.startswith(f"line {line_no}:")
        assert fragment in err
    assert str(exc_info.value) == "\n".join(errors)


def test_schema_type_violations():
    cases = [
        ("[experiment]\nseed = true\n", "integer in [0, 2^64), got True"),
        ("[experiment]\nthreads = 0\n", "integer >= 1"),
        ("[experiment]\nout = 3\n", "quoted path"),
        ("[sloc]\nq = 1\n", "integer >= 2"),
        ('[walk]\nkind = "zigzag"\n', "one of ball_walk"),
        ('[schedule]\nmethod = "secant"\n', "one of dfk, lv, cooling"),
        ("[sloc]\nsets = [1, 2]\n", "list of quoted set descriptors"),
        ("[walk]\ndelta = 0\n", "positive number"),
        ('[body]\nc = 1\n', "unknown key 'c' in [body]"),
    ]
    for text, fragment in cases:
        with pytest.raises(ConfigError) as exc_info:
            parse_config(text)
        assert fragment in str(exc_info.value), text


# ---------------------------------------------------------------------------
# canonicalization and hashing


def test_canonical_text_excludes_out_and_threads():
    a = parse_config('[experiment]\nseed = 5\nout = "here"\nthreads = 1\n'
                     "[body]\nn = 2\n")
    b = parse_config('[experiment]\nseed = 5\nout = "elsewhere"\nthreads = 8\n'
                     "[body]\nn = 2\n")
    assert a.canonical_text() == b.canonical_text()
    assert a.config_hash() == b.config_hash()
    assert "out" not in a.canonical_text()
    assert "threads" not in a.canonical_text()


def test_config_hash_tracks_meaningful_fields():
    base = parse_config("[body]\nn = 2\n")
    same = parse_config("[body]\nn = 2\n")
    other_seed = parse_config("[experiment]\nseed = 1\n[body]\nn = 2\n")
    other_body = parse_config("[body]\nn = 3\n")
    assert base.config_hash() == same.config_hash()
    assert base.config_hash() != other_seed.config_hash()
    assert base.config_hash() != other_body.config_hash()
    h = base.config_hash()
    assert len(h) == 16 and all(c in "0123456789abcdef" for c in h)


def test_canonical_value_formatting():
    cfg = parse_config("[walk]\ndelta = 0.1\n[schedule]\nc = [1, -0.5]\n"
                       "[sloc]\nclosed_form = true\n")
    text = cfg.canonical_text()
    assert "walk.delta=0.10000000000000001" in text
    assert "schedule.c=[1,-0.5]" in text  # %g trims exact trailing zeros
    assert "sloc.closed_form=true" in text
    assert text.splitlines()[0] == "experiment.subcommand=None"
    assert text.splitlines()[1] == "experiment.seed=0"


# ---------------------------------------------------------------------------
# constructors from config sections


def test_make_body_kinds_and_defaults():
    cube = make_body(parse_config('[body]\nkind = "cube"\nn = 3\n'))
    assert isinstance(cube, AxisCube) and cube.n == 3 and cube.half_width == 1.0
    wide = make_body(parse_config('[body]\nkind = "cube"\nn = 2\nhalf_width = 2.5\n'))
    assert wide.half_width == 2.5
    ball = make_body(parse_config('[body]\nkind = "ball"\nn = 4\nradius = 0.5\n'))
    assert isinstance(ball, Ball) and ball.radius == 0.5
    simp = make_body(parse_config('[body]\nkind = "simplex"\nn = 3\n'))
    assert simp.n == 3 and simp.contains(np.full(3, 0.25))
    assert not simp.contains(np.full(3, 0.5))


def test_make_body_requires_kind_and_n():
    for text in ("", '[body]\nkind = "cube"\n', "[body]\nn = 2\n"):
        with pytest.raises(ConfigError, match=r"\[body\] needs kind and n"):
            make_body(parse_config(text))


def test_make_density_kinds():
    body = AxisCube(2)
    cfg = parse_config("")
    assert isinstance(make_density(cfg, body), Uniform)
    g = make_density(parse_config('[density]\nkind = "gaussian"\na = 2\n'), body)
    assert isinstance(g, Gaussian) and g.a == 2.0
    e = make_density(parse_config('[density]\nkind = "exponential"\nalpha = 0.5\n'),
                     body)
    assert isinstance(e, Exponential) and e.alpha == 0.5
    b = make_density(parse_config('[density]\nkind = "boltzmann"\nc = [1, -1]\n'),
                     body)
    assert isinstance(b, Boltzmann) and b.alpha == 1.0
    np.testing.assert_array_equal(b.c, [1.0, -1.0])


def test_make_density_boltzmann_validation():
    body = AxisCube(2)
    with pytest.raises(ConfigError, match="needs the cost vector"):
        make_density(parse_config('[density]\nkind = "boltzmann"\n'), body)
    with pytest.raises(ConfigError, match="length 3"):
        make_density(parse_config('[density]\nkind = "boltzmann"\nc = [1, 2, 3]\n'),
                     body)


def test_parse_set_descriptor_halfspace_and_ball():
    H = parse_set_descriptor("halfspace 1 0.5", 3)
    # signed_distance is batched; only coordinate 1 should matter
    X = np.array([[9.0, 0.4, -9.0], [0.0, 0.6, 0.0]])
    d = H.signed_distance(X)
    assert d[0] > 0 > d[1]
    B = parse_set_descriptor("ball 1.5", 2)
    d = B.signed_distance(np.array([[1.0, 0.0], [2.0, 0.0]]))
    assert d[0] > 0 > d[1]


def test_parse_set_descriptor_rejects_malformed():
    for text in ("halfspace 5 0.0", "halfspace 0", "halfspace a 0.0",
                 "ball", "ball x", "blob 1"):
        with pytest.raises(ConfigError, match="set descriptor"):
            parse_set_descriptor(text, 2)


def test_make_tracked_sets_names_and_order():
    cfg = parse_config('[sloc]\nsets = ["halfspace 0 0.0", "ball 1.0"]\n')
    tracked = make_tracked_sets(cfg, 2)
    assert [name for name, _ in tracked] == ["E0", "E1"]
    assert tracked[0][1].signed_distance(np.array([[-0.5, 3.0]]))[0] > 0
    assert make_tracked_sets(parse_config(""), 2) == []


# ---------------------------------------------------------------------------
# CLI harness


def test_csv_float_formatting_is_full_precision(tmp_path):
    assert cli._fmt(True) == "true" and cli._fmt(False) == "false"
    assert cli._fmt(7) == "7"
    assert cli._fmt(np.float64(0.1)) == "0.10000000000000001"
    for v in (1 / 3, 1e-300, -2.5, 6.02e23, 0.0):
        assert float(cli._fmt(v)) == v

    # a float array takes write_csv's per-row path; its bytes must equal
    # the per-value _fmt join, across more rows than one write block
    cfg = ExperimentConfig()
    cfg.subcommand, cfg.out = "sample", str(tmp_path)
    art = cli._Artifacts(cfg)
    head = "\n".join(art._meta_lines()) + "\n"
    special = [-0.0, np.nan, np.inf, -np.inf, 5e-324, 1e300, 3.0, 0.1]
    X = np.resize(np.array(special), (cli._CSV_BLOCK + 3, 4))
    X[-1] = RngStream(4).generator().standard_normal(4)
    path = art.write_csv(["a", "b", "c", "d"], X)
    want = head + "a,b,c,d\n" + "".join(
        ",".join(cli._fmt(v) for v in row) + "\n" for row in X)
    assert ("\n-0,nan,inf,-inf\n4.9406564584124654e-324,1.0000000000000001e+300,"
            "3,0.10000000000000001\n") in want
    with open(path, newline="") as fh:
        got = fh.read()
    # name the first differing line rather than diff two 200 kB strings
    bad = next((i for i, (g, w) in enumerate(zip(got.split("\n"), want.split("\n")))
                if g != w), None)
    assert bad is None and len(got) == len(want), bad

    # mixed bool/int tables keep the per-value path
    path = art.write_csv(["i", "ok", "x"], [[1, True, 0.5], [2, np.False_, -0.0],
                                            [np.int64(3), False, np.float64(2.0)]])
    with open(path, newline="") as fh:
        assert fh.read() == head + "i,ok,x\n1,true,0.5\n2,false,-0\n3,false,2\n"


def test_float_csv_is_percent_17g_byte_for_byte(tmp_path):
    # write_csv formats float arrays in numpy; the reference is CPython's
    # "%.17g" value by value
    powers = 10.0 ** np.arange(-6, 19)
    k = np.arange(1.0, 4001.0)
    values = np.concatenate([
        # ties at the 18th significant digit round half to even
        1 + k * 2.0 ** -17, k * 2.0 ** -30,
        np.nextafter(powers, 0), powers, np.nextafter(powers, np.inf),
        # rounding carries into the next decade, two of them out of the
        # fixed-notation range
        [np.nextafter(0.1, 0), np.nextafter(1e-4, 0), 99999999999999999.0,
         np.nextafter(1e16, np.inf), np.nextafter(1e17, 0)],
        np.arange(-2000.0, 2000.0), 3.0 * 2.0 ** np.arange(55), [1e16, 5e16],
        [0.0, -0.0, 5e-324, -2.2250738585072e-308, np.inf, -np.inf, np.nan,
         1e300, -1e300],
        RngStream(14).generator().integers(0, 2 ** 64, 60000, dtype=np.uint64)
        .view(np.float64)])
    values.view(np.uint64)[::2] ^= np.uint64(1 << 63)  # flip signs, nan too
    cfg = ExperimentConfig()
    cfg.subcommand, cfg.out = "sample", str(tmp_path)
    art = cli._Artifacts(cfg)
    for X in (values.reshape(-1, 1), values[:len(values) // 7 * 7].reshape(-1, 7)):
        assert len(X) > cli._CSV_BLOCK
        with open(art.write_csv(["x"] * X.shape[1], X), newline="") as fh:
            got = fh.read().split("\n")[4:]
        want = [",".join("%.17g" % v for v in row) for row in X.tolist()] + [""]
        bad = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w), None)
        assert bad is None and len(got) == len(want), (got[bad], want[bad])


def test_volume_run_writes_artifacts_with_metadata(tmp_path, capsys):
    cfg_file = tmp_path / "v.cfg"
    cfg_file.write_text(VOLUME_CFG)
    out = tmp_path / "out"
    rc = cli.main(["volume", "--config", str(cfg_file), "--out", str(out),
                   "--seed", "7"])
    assert rc == 0
    assert capsys.readouterr().out.startswith("volume[dfk]:")

    cfg = parse_config(VOLUME_CFG)
    cfg.subcommand, cfg.seed = "volume", 7
    lines = (out / "volume_seed7.csv").read_text().splitlines()
    assert lines[0] == f"# version={__version__}"
    assert lines[1] == f"# config_hash={cfg.config_hash()}"
    assert lines[2] == "# seed=7"
    assert lines[3].split(",") == ["phase", "param", "ratio", "se",
                                   "acceptance", "n_samples", "exact"]

    payload = json.loads((out / "volume_seed7.json").read_text())
    assert payload["meta"] == {"version": __version__,
                               "config_hash": cfg.config_hash(), "seed": 7}
    assert payload["volume"]["value"] == pytest.approx(4 / 3 * np.pi, rel=1e-9)
    assert payload["volume"]["n_phases"] == 0
    assert payload["volume"]["meta"]["n_exact"] == 0


def test_dfk_csv_marks_its_exact_phases(tmp_path):
    # an exact phase takes no walk step: its acceptance is nan in the
    # CSV, and the JSON counts the exact phases without writing any nan;
    # dfk, lv and cooling write the same columns
    for method in ("dfk", "lv", "cooling"):
        cfg_file = tmp_path / f"{method}.cfg"
        cfg_file.write_text(RERUN_CFGS[f"volume-{method}"])
        out = tmp_path / method
        assert cli.main(["volume", "--config", str(cfg_file), "--out", str(out)]) == 0
        lines = (out / "volume_seed0.csv").read_text().splitlines()
        header, rows = lines[3].split(","), [ln.split(",") for ln in lines[4:]]
        assert rows and all(row[header.index("exact")] == "true"
                            and row[header.index("acceptance")] == "nan" for row in rows)
        volume = json.loads((out / "volume_seed0.json").read_text(),
                            parse_constant=_no_constant)["volume"]
        assert volume["meta"]["n_exact"] == volume["n_phases"] == len(rows)


def test_sample_chain_run_row_count_and_roundtrip(tmp_path):
    cfg_file = tmp_path / "s.cfg"
    cfg_file.write_text('[body]\nkind = "cube"\nn = 2\n'
                        '[walk]\nkind = "hit_and_run"\nn_samples = 40\n'
                        "burn_in = 10\nthin = 2\n")
    out = tmp_path / "out"
    assert cli.main(["sample", "--config", str(cfg_file), "--out", str(out)]) == 0
    lines = (out / "sample_seed0.csv").read_text().splitlines()
    assert lines[3] == "x1,x2"
    assert len(lines) == 4 + 40
    for cell in lines[4].split(","):
        assert cli._fmt(float(cell)) == cell  # full round-trip precision


@pytest.mark.parametrize("text", [
    # fixed notation with up to 7 integer digits
    '[body]\nkind = "cube"\nn = 3\nhalf_width = 1e6\n',
    # scientific notation: coordinates of order 1e-6
    '[body]\nkind = "cube"\nn = 3\n[density]\nkind = "gaussian"\na = 1e12\n'])
def test_sample_chain_csv_is_the_per_value_format(tmp_path, text):
    text += '[walk]\nkind = "hit_and_run"\nn_samples = 300\n'
    cfg_file = tmp_path / "s.cfg"
    cfg_file.write_text(text)
    out = tmp_path / "out"
    assert cli.main(["sample", "--config", str(cfg_file), "--out", str(out),
                     "--seed", "5"]) == 0
    cfg = parse_config(text)
    body = make_body(cfg)
    X = cli._draw_samples(cfg, make_density(cfg, body), RngStream(5).generator())
    lines = (out / "sample_seed5.csv").read_text().splitlines()
    assert lines[4:] == [",".join(cli._fmt(v) for v in row) for row in X]


def test_cli_import_leaves_out_scipy_stats():
    # scipy.stats would be about half of a fresh `import klslab.cli`; the
    # CLI needs only scipy.special and scipy.ndimage, plus scipy's own
    # private modules and its version record, so no scipy.linalg,
    # scipy.stats or scipy.optimize slips onto the import path either
    src = os.path.dirname(os.path.dirname(klslab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, klslab.cli; print(sorted({m.split('.')[1] "
         "for m in sys.modules if m.startswith('scipy.')}))"],
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    loaded = ast.literal_eval(proc.stdout.strip())
    assert [m for m in loaded if not m.startswith("_")] == ["ndimage", "special", "version"]


# one tiny config per subcommand, each volume method on its own
RERUN_CFGS = {
    "sample": SAMPLE_CFG,
    "volume-dfk": '[body]\nkind = "cube"\nn = 3\n[schedule]\nmethod = "dfk"\nk = 200\n',
    "volume-lv": '[body]\nkind = "cube"\nn = 2\n[schedule]\nmethod = "lv"\nk = 200\n',
    "volume-cooling": ('[body]\nkind = "cube"\nn = 2\n[schedule]\n'
                       'method = "cooling"\nk = 200\n'),
    "optimize": ('[body]\nkind = "cube"\nn = 3\n[schedule]\nc = [1.0, 0.0, 0.0]\n'
                 'eps = 0.5\nk = 100\n'),
    "needles": '[body]\nkind = "cube"\nn = 3\n[needles]\nk = 128\nmax_depth = 2\n',
    "cutplane": ('[body]\nkind = "ball"\nn = 3\n[cutplane]\ntarget_radius = 0.3\n'
                 'target_offset = [0.4, 0.0, 0.0]\n'),
    "isotropy": ('[body]\nkind = "cube"\nn = 2\nhalf_width = 0.5\n[isotropy]\n'
                 'max_iters = 3\nk = 200\n'),
    "constants": ('[body]\nkind = "cube"\nn = 2\nhalf_width = 1.7320508075688772\n'
                  '[walk]\nn_samples = 200\n'),
    # one run with a tracked set: no across-run spread for max_dev_sigma
    "sloc": ('[experiment]\nseed = 1\n[body]\nkind = "cube"\nn = 3\n[sloc]\n'
             'T = 0.05\nn_runs = 1\nk = 64\nsets = ["halfspace 0 0.0"]\n'),
}


def _no_constant(name):
    raise ValueError(f"{name} is not strict JSON")


@pytest.mark.parametrize("job", sorted(RERUN_CFGS))
def test_rerun_is_byte_identical(tmp_path, job):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(RERUN_CFGS[job])
    blobs = []
    for d in ("a", "b"):
        out = tmp_path / d
        assert cli.main([job.split("-")[0], "--config", str(cfg_file),
                         "--out", str(out)]) == 0
        blobs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert blobs[0] and blobs[0] == blobs[1]
    for name, blob in blobs[0].items():
        if name.endswith(".json"):
            json.loads(blob, parse_constant=_no_constant)


def test_optimize_starts_at_config_alpha0(tmp_path):
    # cube n = 4, eps = 0.1: the target rate is 40, so alpha0 = 30 leaves
    # ceil(sqrt(4) ln(40/30)) = 1 phase; the default start 1/(2 R |c|)
    # = 1/4 needs ceil(2 ln 160) = 11
    base = ('[experiment]\nseed = 3\n[body]\nkind = "cube"\nn = 4\n[schedule]\n'
            'c = [1.0, 0.0, 0.0, 0.0]\neps = 0.1\nk = 50\n')
    phases = {}
    for label, extra in (("default", ""), ("alpha0", "alpha0 = 30.0\n")):
        cfg_file = tmp_path / f"{label}.cfg"
        cfg_file.write_text(base + extra)
        out = tmp_path / label
        assert cli.main(["optimize", "--config", str(cfg_file), "--out", str(out)]) == 0
        res = json.loads((out / "optimize_seed3.json").read_text())["optimize"]
        # the cube has the Boltzmann law: every phase is drawn exactly
        assert res["meta"]["n_exact"] == res["n_phases"]
        phases[label] = res["n_phases"]
    assert phases == {"default": 11, "alpha0": math.ceil(2 * math.log(40 / 30))}


def test_optimize_alpha0_at_target_rate_names_both(tmp_path, capsys):
    cfg_file = tmp_path / "o.cfg"
    cfg_file.write_text('[body]\nkind = "cube"\nn = 4\n[schedule]\n'
                        'c = [1.0, 0.0, 0.0, 0.0]\neps = 0.1\nalpha0 = 100.0\n')
    rc = cli.main(["optimize", "--config", str(cfg_file),
                   "--out", str(tmp_path / "out")])
    assert rc == 1
    assert ("alpha0 = 100 is not below the target rate n/eps = 40"
            in capsys.readouterr().err)


def test_thread_count_does_not_change_output(tmp_path):
    cfg_file = tmp_path / "v.cfg"
    cfg_file.write_text(VOLUME_CFG)
    blobs = []
    for d, threads in (("t1", "1"), ("t8", "8")):
        out = tmp_path / d
        assert cli.main(["volume", "--config", str(cfg_file), "--out", str(out),
                         "--threads", threads]) == 0
        blobs.append((out / "volume_seed0.csv").read_bytes()
                     + (out / "volume_seed0.json").read_bytes())
    assert blobs[0] == blobs[1]


def test_flag_beats_env_beats_config_for_seed(tmp_path, monkeypatch):
    cfg_file = tmp_path / "s.cfg"
    cfg_file.write_text(SAMPLE_CFG)  # config says seed = 1
    out = tmp_path / "out"

    assert cli.main(["sample", "--config", str(cfg_file), "--out", str(out)]) == 0
    assert (out / "sample_seed1.csv").exists()

    monkeypatch.setenv("KLSLAB_SEED", "2")
    assert cli.main(["sample", "--config", str(cfg_file), "--out", str(out)]) == 0
    assert (out / "sample_seed2.csv").exists()

    assert cli.main(["sample", "--config", str(cfg_file), "--out", str(out),
                     "--seed", "3"]) == 0
    assert (out / "sample_seed3.csv").exists()


def test_flag_beats_env_beats_config_for_out(tmp_path, monkeypatch):
    cfg_out, env_out, flag_out = (tmp_path / d for d in ("c", "e", "f"))
    cfg_file = tmp_path / "s.cfg"
    cfg_file.write_text(SAMPLE_CFG.replace("seed = 1",
                                           f'seed = 1\nout = "{cfg_out}"'))

    assert cli.main(["sample", "--config", str(cfg_file)]) == 0
    assert (cfg_out / "sample_seed1.csv").exists()

    monkeypatch.setenv("KLSLAB_OUT", str(env_out))
    assert cli.main(["sample", "--config", str(cfg_file)]) == 0
    assert (env_out / "sample_seed1.csv").exists()

    assert cli.main(["sample", "--config", str(cfg_file),
                     "--out", str(flag_out)]) == 0
    assert (flag_out / "sample_seed1.csv").exists()


def test_env_config_path_and_flag_override(tmp_path, monkeypatch):
    good = tmp_path / "good.cfg"
    good.write_text(SAMPLE_CFG)
    broken = tmp_path / "broken.cfg"
    broken.write_text("[body]\nn = 0\n")
    out = tmp_path / "out"

    monkeypatch.setenv("KLSLAB_CONFIG", str(good))
    assert cli.main(["sample", "--out", str(out)]) == 0
    assert (out / "sample_seed1.csv").exists()

    monkeypatch.setenv("KLSLAB_CONFIG", str(broken))
    assert cli.main(["sample", "--out", str(out)]) == 1
    assert cli.main(["sample", "--config", str(good), "--out", str(out)]) == 0


def test_config_subcommand_must_match_the_command_line(tmp_path, capsys):
    cfg_file = tmp_path / "s.cfg"
    cfg_file.write_text(SAMPLE_CFG.replace("seed = 1", 'subcommand = "volume"\nseed = 1'))
    out = tmp_path / "out"
    assert cli.main(["sample", "--config", str(cfg_file), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "'volume'" in err and "'sample'" in err
    assert not out.exists()


def test_config_subcommand_matching_the_command_line_runs(tmp_path):
    cfg_file = tmp_path / "s.cfg"
    cfg_file.write_text(SAMPLE_CFG.replace("seed = 1", 'subcommand = "sample"\nseed = 1'))
    out = tmp_path / "out"
    assert cli.main(["sample", "--config", str(cfg_file), "--out", str(out)]) == 0
    assert (out / "sample_seed1.csv").exists()


def test_usage_errors_exit_one(capsys):
    assert cli.main([]) == 1
    assert "config error:" in capsys.readouterr().err
    assert cli.main(["bogus"]) == 1
    assert "config error:" in capsys.readouterr().err


def test_unreadable_config_exits_one(tmp_path, capsys):
    assert cli.main(["sample", "--config", str(tmp_path / "nope.cfg")]) == 1
    assert "cannot read config" in capsys.readouterr().err


def test_invalid_config_prints_every_error(tmp_path, capsys):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("[body]\nn = 0\nkindd = 3\n")
    assert cli.main(["sample", "--config", str(cfg_file)]) == 1
    err = capsys.readouterr().err
    assert "line 2:" in err and "line 3:" in err


def test_bad_seed_and_threads_exit_one(tmp_path, monkeypatch, capsys):
    cfg_file = tmp_path / "s.cfg"
    cfg_file.write_text(SAMPLE_CFG)
    argv = ["sample", "--config", str(cfg_file), "--out", str(tmp_path)]

    monkeypatch.setenv("KLSLAB_SEED", "xyz")
    assert cli.main(argv) == 1
    assert "seed must be an integer" in capsys.readouterr().err
    monkeypatch.delenv("KLSLAB_SEED")

    assert cli.main(argv + ["--seed=-1"]) == 1
    assert "seed out of range" in capsys.readouterr().err

    assert cli.main(argv + ["--threads", "0"]) == 1
    assert "threads must be >= 1" in capsys.readouterr().err

    monkeypatch.setenv("KLSLAB_THREADS", "many")
    assert cli.main(argv) == 1
    assert "threads must be an integer" in capsys.readouterr().err


def test_handler_input_error_exits_one(tmp_path, capsys):
    # no [body] section at all: the sample handler rejects the config
    assert cli.main(["sample", "--out", str(tmp_path)]) == 1
    assert "[body] needs kind and n" in capsys.readouterr().err


def test_unbalanced_needle_root_exits_one(tmp_path, capsys):
    cfg_file = tmp_path / "n.cfg"
    cfg_file.write_text('[body]\nkind = "cube"\nn = 2\n'
                        '[needles]\nset = "halfspace 0 0.9"\nk = 64\n'
                        "max_depth = 1\n")
    rc = cli.main(["needles", "--config", str(cfg_file), "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "root measure" in err


def test_unbalanced_needle_root_from_the_chain_exits_two(tmp_path, monkeypatch, capsys):
    # the same check on chain draws is an estimation failure, not bad input
    X = np.zeros((64, 2))
    X[:56, 0] = -1.0
    monkeypatch.setattr(needles, "exact_or_chain", lambda *args, **kwargs: (X, False))
    cfg_file = tmp_path / "n.cfg"
    cfg_file.write_text('[body]\nkind = "cube"\nn = 2\n'
                        '[needles]\nset = "halfspace 0 0.0"\nk = 64\n'
                        "max_depth = 1\n")
    rc = cli.main(["needles", "--config", str(cfg_file), "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("estimation failure:") and "root measure" in err


def test_ball_walk_on_gaussian_exits_one(tmp_path, capsys, monkeypatch):
    # the ball walk ignores the density; on a Gaussian it would write
    # uniform points, so the sample command refuses and names metropolis,
    # before it spends a warm start under any module's binding
    warm_starts = []
    for mod in (walks, cli):
        monkeypatch.setattr(mod, "warm_start",
                            lambda *args, **kwargs: warm_starts.append(args),
                            raising=False)
    cfg_file = tmp_path / "bw.cfg"
    cfg_file.write_text('[body]\nkind = "cube"\nn = 2\nhalf_width = 5.0\n'
                        '[density]\nkind = "gaussian"\na = 4.0\n'
                        '[walk]\nkind = "ball_walk"\nn_samples = 50\n')
    rc = cli.main(["sample", "--config", str(cfg_file), "--out", str(tmp_path)])
    assert rc == 1
    assert warm_starts == []
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'metropolis'" in err
    assert not (tmp_path / "sample_seed0.csv").exists()


@pytest.mark.parametrize("target, named", [
    ("target_radius = 2.0\n", "|target_offset| = 0 plus target_radius = 2"),
    ("target_offset = [5.0, 0.0]\n", "|target_offset| = 5 plus target_radius = 0.1"),
], ids=["radius", "offset"])
def test_cutplane_target_outside_body_exits_one(tmp_path, capsys, target, named):
    # a target ball that does not fit inside the radius-1 body is bad input,
    # not a run that reports a negative iteration count or a failed search
    cfg_file = tmp_path / "cp.cfg"
    cfg_file.write_text('[body]\nkind = "ball"\nn = 2\n[cutplane]\n' + target)
    rc = cli.main(["cutplane", "--config", str(cfg_file), "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err and "radius 1" in err
    assert not list(tmp_path.glob("cutplane_*"))


def test_exact_sample_without_exact_law_exits_one(tmp_path, capsys):
    # a = 0 leaves a flat Gaussian with no exact sampler: NoExactSampler
    # is a ValueError, so exact = true on it is an input error
    cfg_file = tmp_path / "ex.cfg"
    cfg_file.write_text('[body]\nkind = "cube"\nn = 2\n'
                        '[density]\nkind = "gaussian"\na = 0\n'
                        '[walk]\nexact = true\nn_samples = 10\n')
    rc = cli.main(["sample", "--config", str(cfg_file), "--out", str(tmp_path)])
    assert rc == 1
    assert "no proper unrestricted law" in capsys.readouterr().err


def test_runtime_estimation_failure_exits_two(tmp_path, capsys):
    # 2 ensemble points in 4 dimensions: the covariance estimate is rank
    # deficient, so inverse_sqrt_cov control must fail at the first step
    cfg_file = tmp_path / "sl.cfg"
    cfg_file.write_text('[body]\nkind = "cube"\nn = 4\nhalf_width = 3.0\n'
                        '[density]\nkind = "gaussian"\n'
                        '[sloc]\ncontrol = "inverse_sqrt_cov"\nk = 2\n'
                        "window = 1\nT = 0.05\nh = 0.05\ninner_steps = 1\n")
    rc = cli.main(["sloc", "--config", str(cfg_file), "--out", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("estimation failure:")


def test_library_bug_is_not_an_estimation_failure(tmp_path, monkeypatch):
    # only the package's own runtime errors map to exit 2; anything else
    # is a bug and must surface as a traceback
    def broken(cfg, art):
        raise NotImplementedError("unfinished handler")

    monkeypatch.setitem(cli._HANDLERS, "sample", broken)
    with pytest.raises(NotImplementedError, match="unfinished handler"):
        cli.main(["sample", "--out", str(tmp_path)])


def test_every_config_key_reaches_the_code():
    # a key the schema accepts but no make_* function or handler reads
    # would be parsed and then silently ignored
    readers = [f for name, f in vars(config).items() if name.startswith("make_")]
    for name, handler in vars(cli).items():
        if name.startswith("_cmd_"):
            # the handler and the cli helpers it calls, such as _draw_samples
            readers.append(handler)
            readers += [getattr(cli, g) for g in handler.__code__.co_names
                        if g.startswith("_")
                        and inspect.isfunction(getattr(cli, g, None))]
    source = "".join(inspect.getsource(f) for f in readers)
    unread = [f"[{section}] {key}" for section, keys in config._SCHEMA.items()
              if section != "experiment" for key in keys
              if f'get("{key}"' not in source and f'["{key}"]' not in source]
    assert unread == []


def test_run_experiment_requires_subcommand(capsys):
    assert cli.run_experiment(ExperimentConfig()) == 1
    assert "unknown or missing subcommand" in capsys.readouterr().err


def test_module_entry_point(tmp_path):
    cfg_file = tmp_path / "v.cfg"
    cfg_file.write_text(VOLUME_CFG)
    # the child imports the klslab this test imported, installed or not
    src = os.path.dirname(os.path.dirname(klslab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "klslab.cli", "volume",
         "--config", str(cfg_file), "--out", str(tmp_path / "o")],
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("volume[dfk]:")
    assert (tmp_path / "o" / "volume_seed0.csv").exists()
