"""The paper's applications: EM3D (irregular) and matrix multiplication
(regular), plus the Jacobi extension; :mod:`.program` holds the MPI-baseline
and HMPI programs all three run through."""
