"""Settings shared by every test module.

A failing property test prints the ``@reproduce_failure`` blob that reruns
it, so a failure seen once in a log can be replayed. The profile extends
whichever one hypothesis loaded (its ``ci`` profile prints the blob already)
and changes nothing else: no health check is suppressed and no example count
changes.
"""

from hypothesis import settings

settings.register_profile("print-blob", parent=settings.default, print_blob=True)
settings.load_profile("print-blob")
