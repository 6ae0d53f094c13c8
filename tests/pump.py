"""One body for both context factories: the generator pump tests share.

A test body is written once, generator style (``answer = yield call``).
A generator context runs it as is; a thread context runs :func:`pump`
over it, which feeds each blocking call's own result back where a
generator context feeds the simcall's.
"""


def pump(steps):
    """Drive the generator ``steps`` to its end, sending each yielded
    value straight back in."""
    answer = None
    try:
        while True:
            answer = steps.send(answer)
    except StopIteration:
        pass


def actor_body(context, steps):
    """The actor body that runs the generator ``steps(actor)`` under the
    context factory named ``context``."""
    if context == "thread":
        return lambda actor: pump(steps(actor))
    return steps
