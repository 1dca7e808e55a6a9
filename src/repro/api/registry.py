"""Engine protocol and the string-keyed engine registry.

Every execution engine in :mod:`repro.engine` -- and any user-defined one --
conforms to the :class:`Engine` protocol: a ``name`` attribute and a
``run(query) -> QueryResult`` method.  The registry maps short string keys
(``"cpu"``, ``"gpu"``, ``"coprocessor"``, ...) to engine factories so that
:class:`repro.api.Session` can construct engines by name, and the
:func:`register_engine` decorator lets new engines plug themselves in::

    @register_engine("my-engine", aliases=("mine",))
    class MyEngine:
        name = "my-engine"

        def __init__(self, db):
            self.db = db

        def run(self, query):
            ...

This module deliberately imports nothing from :mod:`repro.engine`: the
engine modules themselves import :func:`register_engine` to self-register,
and a module-level import in the other direction would be circular.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Protocol, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.result import QueryResult
    from repro.ssb.queries import SSBQuery


@runtime_checkable
class Engine(Protocol):
    """What :class:`~repro.api.session.Session` requires of an engine.

    ``run`` must be a pure function of the query and the contents of the
    tables it reads, and answer with the shared functional pass's value
    (:func:`~repro.engine.plan.execute_query`).  A caching session stores
    each engine's result beside that pass and replays it for the same query
    at the same table versions without calling ``run`` again.  All six
    built-in engines qualify: each is ``execute_query`` plus a simulator.
    """

    name: str

    def run(self, query: "SSBQuery") -> "QueryResult":
        """Execute ``query`` and return its answer plus simulated cost."""
        ...


#: An engine factory: called as ``factory(db, **kwargs)``.
EngineFactory = Callable[..., Engine]


class EngineRegistry:
    """A string-keyed catalogue of engine factories.

    Keys are canonical short names; aliases (typically the engine's
    descriptive ``name`` attribute, e.g. ``"standalone-cpu"``) resolve to the
    same factory.
    """

    def __init__(self) -> None:
        self._factories: dict[str, EngineFactory] = {}
        self._aliases: dict[str, str] = {}

    # ------------------------------------------------------------------
    def register(
        self, key: str, factory: EngineFactory | None = None, *, aliases: tuple[str, ...] = ()
    ):
        """Register ``factory`` under ``key`` (usable as a decorator).

        Re-registering the same factory (same module and qualified name, as
        happens when a module is reloaded in a REPL) re-binds idempotently;
        registering a *different* factory under a taken name raises.
        """

        def apply(f: EngineFactory) -> EngineFactory:
            for name in (key, *aliases):
                existing_key = name if name in self._factories else self._aliases.get(name)
                if existing_key is None:
                    continue
                existing = self._factories[existing_key]
                # Lambdas all share the qualname "<lambda>", so for them only
                # the identical object counts as a re-registration.
                qualname = getattr(f, "__qualname__", "<lambda>")
                same_identity = existing_key == key and (
                    existing is f
                    or (
                        not qualname.endswith("<lambda>")
                        and getattr(existing, "__module__", None) == getattr(f, "__module__", None)
                        and getattr(existing, "__qualname__", None) == qualname
                    )
                )
                if not same_identity:
                    raise ValueError(f"engine name {name!r} is already registered")
            self._factories[key] = f
            for alias in aliases:
                self._aliases[alias] = key
            return f

        if factory is None:
            return apply
        return apply(factory)

    def resolve(self, name: str) -> str:
        """Canonical key for ``name`` (key or alias), with a clear error."""
        if name in self._factories:
            return name
        if name in self._aliases:
            return self._aliases[name]
        raise KeyError(f"unknown engine {name!r}; registered engines: {self.names()}")

    def create(self, name: str, db, **kwargs) -> Engine:
        """Instantiate the engine registered under ``name`` for ``db``."""
        engine = self._factories[self.resolve(name)](db, **kwargs)
        if not isinstance(engine, Engine):
            raise TypeError(
                f"factory for {name!r} produced {type(engine).__name__}, which does not "
                f"conform to the Engine protocol (name attribute + run method)"
            )
        return engine

    def names(self) -> list[str]:
        """Sorted canonical engine keys."""
        return sorted(self._factories)

    def __contains__(self, name: str) -> bool:
        return name in self._factories or name in self._aliases

    def items(self):
        return self._factories.items()


#: The process-wide default registry the built-in engines register into.
DEFAULT_REGISTRY = EngineRegistry()


def register_engine(
    key: str, *, aliases: tuple[str, ...] = (), registry: EngineRegistry | None = None
):
    """Class decorator registering an engine factory under ``key``."""
    return (registry if registry is not None else DEFAULT_REGISTRY).register(key, aliases=aliases)


def available_engines(registry: EngineRegistry | None = None) -> list[str]:
    """Canonical keys of every registered engine (built-ins included)."""
    import repro.engine  # noqa: F401  (ensures the built-ins have registered)

    return (registry if registry is not None else DEFAULT_REGISTRY).names()
