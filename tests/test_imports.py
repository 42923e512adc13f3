"""What a bare import of the package loads."""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def test_import_leaves_scipy_integrate_and_optimize_unloaded():
    # a fresh interpreter, since this one has imported both already
    code = ("import sys, sphere_spectra, sphere_spectra.cli; "
            "print([m for m in ('scipy.integrate', 'scipy.optimize') "
            "if m in sys.modules])")
    env = dict(os.environ, PYTHONPATH=SRC)
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "[]"


def test_verify_oracles_leaves_scipy_integrate_and_optimize_unloaded():
    code = ("import sys\n"
            "from sphere_spectra import cli\n"
            "code = cli.main(['verify-oracles', '--dims', '2'])\n"
            "print(code, [m for m in ('scipy.integrate', 'scipy.optimize') "
            "if m in sys.modules])\n")
    env = dict(os.environ, PYTHONPATH=SRC)
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert run.stdout.splitlines()[-1] == "0 []"
