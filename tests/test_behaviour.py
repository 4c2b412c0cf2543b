"""Every command of the fixed matrix in ``behaviour.py`` prints what it
printed when its digest was committed: the same exit code, stdout and
stderr, byte for byte."""

from behaviour import DIGESTS, digests, first_difference


def test_commands_keep_their_output():
    assert first_difference(digests(), DIGESTS.read_text().splitlines()) \
        is None
