"""The walls of `families.WALLS`, each run at its small size."""

from families import WALLS


def test_every_wall_gives_its_result_at_its_small_size():
    for family, operation, size, expected in WALLS:
        assert operation(family(size)) == expected, family.__name__
