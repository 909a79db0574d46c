"""The algebra every solver shares has one home, `fields`, so each solver
module loads only the modules of its own equations: the diffusion side, the
certificate, the Galerkin scheme and the mollifier never load the ABI
solver."""

import subprocess
import sys
from pathlib import Path

import pytest

from abimhd import abi, entropy, fields, galerkin

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("module", ["dmhd", "entropy", "galerkin", "mollify"])
def test_module_does_not_load_the_abi_solver(module):
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); "
            f"import abimhd.{module}; print('abimhd.abi' in sys.modules)")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert run.stdout.strip() == "False"


@pytest.mark.parametrize("name", ["cross3", "vec_norm", "_matvec", "_curl_of",
                                  "_energy_arrays", "ModalScalar",
                                  "ModalVector"])
def test_shared_algebra_is_defined_in_fields(name):
    assert getattr(fields, name).__module__ == "abimhd.fields"


def test_solver_modules_bind_the_fields_objects():
    # the names callers import from the solver modules are the same objects,
    # so patching one patches every binding
    assert abi.cross3 is fields.cross3
    assert entropy._curl_of is fields._curl_of
    assert galerkin.ModalScalar is fields.ModalScalar
    assert galerkin.ModalVector is fields.ModalVector
