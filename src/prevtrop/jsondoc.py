"""The malformed-input error and the JSON shape checks of the document
decoders.

This module imports nothing else from prevtrop, so the command line can read
a document and report it malformed without loading the geometry.
"""


class DocumentError(ValueError):
    """Malformed input: a missing field or one of the wrong JSON type, an
    unreadable file, bad JSON, or a wrong document kind."""


def _json_typed(value, kind, what):
    """value, checked to be a JSON array (kind list) or object (kind dict);
    what names the field in the DocumentError."""
    if not isinstance(value, kind):
        raise DocumentError("%s must be a JSON %s"
                            % (what, "array" if kind is list else "object"))
    return value


def _json_field(data, key, kind=None):
    """data[key] of a JSON object, checked by _json_typed when a kind is
    given; a missing field is malformed input."""
    try:
        value = data[key]
    except KeyError:
        raise DocumentError('missing field "%s"' % key) from None
    return value if kind is None else _json_typed(value, kind, key)


def _json_rows(value, what):
    """A JSON array of arrays, as a list of tuples."""
    for k, row in enumerate(_json_typed(value, list, what)):
        if not isinstance(row, list):
            raise DocumentError("%s[%d] must be a JSON array" % (what, k))
    return [tuple(row) for row in value]


def _json_objects(value, what):
    """A JSON array of objects, as a list."""
    for k, item in enumerate(_json_typed(value, list, what)):
        _json_typed(item, dict, "%s[%d]" % (what, k))
    return value

