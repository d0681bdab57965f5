"""Reading ``next_command``'s text runs back as text, for the tests.

``next_command`` returns a text run as the start and end of each of its
comment-free pieces in the stream's content.  :func:`next_item` checks
that those positions are in order, with no empty piece, and joins the
pieces, so that a test can compare a run with the string it stands for.
"""

from citeforge.scanner import CharStream, next_command


def next_item(stream: CharStream, **options):
    """``next_command``'s command, or its text run joined into one string."""
    item = next_command(stream, **options)
    if not isinstance(item, list):
        return item
    assert len(item) % 2 == 0 and all(a < b for a, b in zip(item, item[1:]))
    ends = iter(item)
    return "".join([stream.content[start : next(ends)] for start in ends])
