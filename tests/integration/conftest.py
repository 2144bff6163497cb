"""Fixtures shared by the integration pins."""

import pytest


@pytest.fixture
def handed_out():
    """``handed_out(router)`` returns a list that fills with every handle
    the router's ``invoke_write`` / ``invoke_read`` hand out, in order:
    one per client operation, whichever layer serves it."""

    def listen(router) -> list:
        handles = []
        for name in ("invoke_write", "invoke_read"):
            def invoke(*args, _invoke=getattr(router, name), **options):
                handles.append(_invoke(*args, **options))
                return handles[-1]
            setattr(router, name, invoke)
        return handles

    return listen
