"""SHA-256 from CPython's built-in module (``_sha2`` from 3.12, ``_sha256`` before), not
from the OpenSSL libcrypto ``hashlib`` maps (about 3.5 MB); ``hashlib`` if neither exists."""

try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

__all__ = ["sha256"]
