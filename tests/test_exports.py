import tensorperm
from tensorperm import gellmann, index_algebra, matrix_core, perm_matrix


def test_package_exports_are_the_modules_exports():
    names = tensorperm.__all__
    assert names == [
        *index_algebra.__all__,
        *matrix_core.__all__,
        *perm_matrix.__all__,
        *gellmann.__all__,
        "__version__",
    ]
    assert len(set(names)) == len(names)
    for name in names:
        assert getattr(tensorperm, name) is not None, name
    assert "rank_over_rationals" in names
    assert not {"rect_identity", "transpose", "sigma_inverse"} & set(names)
