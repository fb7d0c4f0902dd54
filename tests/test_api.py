import perpetua


def test_exports_resolve_and_are_distinct():
    # one name per job: an alias would export the same object twice
    seen = {}
    for name in perpetua.__all__:
        obj = getattr(perpetua, name)
        if callable(obj):
            assert id(obj) not in seen, f"{name} duplicates {seen[id(obj)]}"
            seen[id(obj)] = name
