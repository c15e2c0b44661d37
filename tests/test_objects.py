from mucinf.objects import (BOT, TOP, Base, Dagger, Dual, Par, Tensor, dag,
                            dual)


def test_structural_equality_and_hash():
    a = Tensor(Base(2), Par(Base(3), BOT))
    b = Tensor(Base(2), Par(Base(3), BOT))
    assert a == b
    assert hash(a) == hash(b)
    assert a != Tensor(Base(2), Par(Base(3), TOP))


def test_operators_build_trees():
    a, b = Base(2), Base(3)
    assert a * b == Tensor(a, b)
    assert a + b == Par(a, b)
    assert dag(a) == Dagger(a)
    assert dual(a) == Dual(a)


def test_no_quotienting_by_coherence():
    a, b, c = Base(1), Base(2), Base(3)
    assert Tensor(Tensor(a, b), c) != Tensor(a, Tensor(b, c))
    assert Dagger(Dagger(a)) != a
