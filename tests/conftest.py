"""Settings shared by every test module.

A failing property test prints the ``@reproduce_failure`` blob that reruns
it, so a failure seen once in a log can be replayed. The profile extends
whichever one hypothesis loaded (its ``ci`` profile prints the blob already)
and changes nothing else: no health check is suppressed and no example count
changes.

When a property fails, the hypothesis plugin imports
``hypothesis.extra._patching`` to suggest a patch. Where ``libcst`` is
installed, that import raises a ``DeprecationWarning`` from
``mypy_extensions``, which ``filterwarnings`` makes an error, and the session
ends in ``INTERNALERROR`` without the falsifying example. So the module is
imported here once, with only that warning ignored; without ``libcst`` the
plugin skips the patch on its own.
"""

import warnings

from hypothesis import settings

try:
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "mypy_extensions.TypedDict is deprecated",
                                DeprecationWarning)
        import hypothesis.extra._patching  # noqa: F401
except ImportError:
    pass

settings.register_profile("print-blob", parent=settings.default, print_blob=True)
settings.load_profile("print-blob")
