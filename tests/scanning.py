"""Reading ``next_command``'s results back one item at a time, for the tests.

``next_command`` returns a text run, as the start and end of each of its
comment-free pieces in the stream's content, together with the command
that ends it, or ``None`` at the end of input.  :func:`next_item` checks
that those positions are in order, with no empty piece, and hands the
pair out as two items: the run's pieces joined into one string, then
the command.  A run is left out when it is empty and a command ends it,
so a test can compare each item with the string or command it stands
for.
"""

from citeforge.scanner import CharStream, CommandInvocation, next_command

# The command that ended the run ``next_item`` last returned, per stream.
_pending: dict[CharStream, CommandInvocation] = {}


def next_item(stream: CharStream, **options):
    """The text run joined into one string, or the command after it."""
    if stream in _pending:
        return _pending.pop(stream)
    pieces, command = next_command(stream, **options)
    assert len(pieces) % 2 == 0 and all(a < b for a, b in zip(pieces, pieces[1:]))
    if command is not None:
        if not pieces:
            return command
        _pending[stream] = command
    ends = iter(pieces)
    return "".join([stream.content[start : next(ends)] for start in ends])
