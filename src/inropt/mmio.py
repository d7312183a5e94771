"""Matrix Market interchange helpers.

Array-format files round-trip bit-exactly (17 significant digits); sparse
coordinate files come back as CSR.  Hermitian data written here carries the
``hermitian``/``symmetric`` structure flag, but a ``general`` file whose
content passes the symmetry check is accepted on read.
"""

from __future__ import annotations

import numpy as np
import scipy.io
import scipy.sparse as sp

from .errors import InroptError

WRITE_PRECISION = 17


class MatrixFileError(InroptError):
    """File could not be parsed as Matrix Market data."""


def read_matrix(path):
    """Read a Matrix Market file; dense array or CSR depending on format."""
    try:
        M = scipy.io.mmread(str(path))
    except (ValueError, OSError, TypeError) as exc:
        raise MatrixFileError(f"{path}: {exc}") from exc
    if sp.issparse(M):
        return M.tocsr()
    return np.asarray(M)


def write_matrix(path, M):
    """Write dense or sparse data with round-trip precision."""
    if not sp.issparse(M):
        M = np.asarray(M)
    scipy.io.mmwrite(str(path), M, precision=WRITE_PRECISION)
