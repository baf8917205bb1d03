import pytest

from tracedcat.hopf_monoid import (group_hopf_bundle, group_table_c2,
                                   group_table_s3)
from tracedcat.model_iter import PfnModel, pfn_model
from tracedcat.model_linear import mat_model
from tracedcat.model_order import (bounded_poset_two_traces, fincppo_model,
                                   int_poset_model, n_monad)


@pytest.fixture(scope="session")
def mat():
    return mat_model()

@pytest.fixture(scope="session")
def zle():
    return int_poset_model()


@pytest.fixture(scope="session")
def fincppo():
    return fincppo_model()


@pytest.fixture(scope="session")
def pfn():
    return pfn_model()


class _CappedPfn(PfnModel):
    """Partial functions that decline every hom-set above 50 morphisms."""

    hom_cap = 50


@pytest.fixture(scope="session")
def capped_pfn():
    return _CappedPfn()


@pytest.fixture(scope="session")
def two_traces():
    return bounded_poset_two_traces()


@pytest.fixture(scope="session")
def qc2(mat):
    return group_hopf_bundle(mat, group_table_c2(), name="qc2")[-1]


@pytest.fixture(scope="session")
def qs3(mat):
    return group_hopf_bundle(mat, group_table_s3(), name="qs3")[-1]


@pytest.fixture(scope="session")
def nbundle():
    return n_monad()

