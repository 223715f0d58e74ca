"""``import weylkit`` loads submodules on first use, and each CLI command imports only its own layers.

Each check runs in a fresh interpreter, since this test process has already
imported every module.
"""

import subprocess
import sys
import textwrap


def run_python(code):
    res = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    return res.stdout


def test_basis_command_leaves_verify_channels_and_dilation_unloaded(tmp_path):
    out = tmp_path / "basis.json"
    loaded = run_python(
        f"""
        import sys
        from weylkit.cli import run
        assert run(["basis", "--d", "2", "--out", {str(out)!r}]) == 0
        print(sorted(m for m in sys.modules if m.startswith("weylkit.")))
        """
    )
    for name in ("weylkit.verify", "weylkit.channels", "weylkit.dilation", "weylkit.rand"):
        assert repr(name) not in loaded
    assert "'weylkit.weyl'" in loaded
    assert out.read_text(encoding="utf-8").startswith('{"d": 2, "order": "l-major", "elements": [')


def test_bare_import_loads_nothing_and_resolves_every_name():
    run_python(
        """
        import sys
        import weylkit
        assert not [m for m in sys.modules if m.startswith("weylkit.")]
        assert weylkit.__version__ == "0.1.0"
        assert weylkit.QuantumChannel.__module__ == "weylkit.channels"
        assert weylkit.channels is sys.modules["weylkit.channels"]
        assert weylkit.rand.random_gamma is sys.modules["weylkit.rand"].random_gamma
        names = dir(weylkit)
        assert {"QuantumChannel", "weyl_basis", "verify", "weyl", "__version__"} <= set(names)
        assert set(weylkit.__all__) <= set(names)

        namespace = {}
        exec("from weylkit import *", namespace)
        assert set(weylkit.__all__) <= set(namespace)
        assert namespace["weyl_basis"] is sys.modules["weylkit.weyl"].weyl_basis

        try:
            weylkit.no_such_name
        except AttributeError as exc:
            assert "no_such_name" in str(exc)
        else:
            raise AssertionError("unknown attribute resolved")
        """
    )
