"""Independent references the tests hold the simulator to.

Nothing here imports ``repro``: a reference that shared arithmetic with
the code it checks would only ever agree with it
(``tests/integration/test_import_guard.py`` enforces this).
"""
