"""Pickled images of function IR, for rollback and for transport.

The promotion pipeline takes one image per function, before phase 1.
A phase-1 failure restores it; a later rollback restores it and replays
phase 1, which is deterministic and gives the prepared IR again, so no
second image is needed.  Divergence bisection replays once per function
and then toggles between :class:`FunctionState` captures, which copy
nothing.  The supervised worker takes images of its own: one per
attempt, restored only when the attempt fails, and the transport image
of the promoted IR it ships back to the parent.

A :class:`FunctionSnapshot` is a pickled image of everything a pass may
mutate — blocks, instructions, virtual registers, frame variables, naming
counters — that *shares* the module-level objects: the function itself,
its :class:`~repro.ir.module.Module`, and every global
:class:`~repro.memory.resources.MemoryVar`.  The pickler writes each of
those as a reference by key (``_shared(key)``) instead of copying it;
only those three types reduce through Python, so pickling every other
object stays in the C pickler.  Sharing is load-bearing: the
interpreter maps storage by variable identity and the alias model hands
out the module's own global objects, so restored IR must keep
referencing them.

Loading an image installs the copy into an existing ``Function`` object
(rather than swapping objects in ``module.functions``) so that every
external reference to the function stays valid.  :meth:`restore` binds
the keys to the original function and module; :meth:`install` binds them
to the same-named function and globals of another module, which is how
the supervised worker ships promoted IR back into the parent.  Every load
builds fresh objects, so an image can be restored any number of times.
"""

from __future__ import annotations

import copyreg
import io
import pickle
from typing import Dict, Optional, Tuple

from repro.ir.function import Function
from repro.ir.module import Module
from repro.memory.resources import MemoryVar

#: Keys of the function and its module; a global's key is its name.
_FUNCTION = 0
_MODULE = 1


class TransportError(RuntimeError):
    """An image could not be installed into a module."""


class FunctionState:
    """A shallow capture of one function's mutable fields.

    Installing a state hands the captured blocks to the function without
    copying, so a state must only be installed while nothing mutates the
    IR it captured — exactly the discipline divergence bisection follows
    when it toggles a function between its promoted and pre-promotion
    versions.
    """

    __slots__ = (
        "blocks",
        "params",
        "frame_vars",
        "next_reg",
        "next_block",
        "mem_versions",
    )

    def __init__(self, function: Function) -> None:
        self.blocks = function.blocks
        self.params = function.params
        self.frame_vars = function.frame_vars
        self.next_reg = function._next_reg
        self.next_block = function._next_block
        self.mem_versions = function._mem_versions

    def install(self, function: Function) -> None:
        function.blocks = self.blocks
        function.params = self.params
        function.frame_vars = self.frame_vars
        function._next_reg = self.next_reg
        function._next_block = self.next_block
        function._mem_versions = self.mem_versions
        for block in self.blocks:
            block.function = function


def capture_state(function: Function) -> FunctionState:
    """Capture the function's current IR without copying (see
    :class:`FunctionState` for the aliasing caveat)."""
    return FunctionState(function)


def _shared(key):
    """Stand-in for a shared object in an image.

    The pickler reduces the function, its module and its globals to a
    call of this function; :class:`_ImageUnpickler` resolves it to its
    own :meth:`~_ImageUnpickler.persistent_load`.  Reached any other way
    (a plain :func:`pickle.loads`), there is nothing to bind to.
    """
    raise TransportError(
        f"image key {key!r} binds only through FunctionSnapshot.restore or .install"
    )


class _ImagePickler(pickle.Pickler):
    def __init__(self, file, function: Function) -> None:
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self.shared = {id(function): _FUNCTION}
        module = function.module
        if module is not None:
            self.shared[id(module)] = _MODULE
            for name, var in module.globals.items():
                self.shared[id(var)] = name
        # Only these three types can be shared, so only they call back
        # into Python, and the memo limits that to once per object.
        self.dispatch_table = copyreg.dispatch_table.copy()
        for cls in (Function, Module, MemoryVar):
            self.dispatch_table[cls] = self._reduce

    def _reduce(self, obj):
        key = self.shared.get(id(obj))
        if key is None:
            return obj.__reduce_ex__(pickle.HIGHEST_PROTOCOL)
        return _shared, (key,)


#: The classes images name, by (module, name).  The default lookup goes
#: through the import system on every call, which costs more than
#: loading a small function's objects.
_GLOBALS: Dict[Tuple[str, str], object] = {}


class _ImageUnpickler(pickle.Unpickler):
    def __init__(self, file, function: Function) -> None:
        super().__init__(file)
        self.function = function

    def find_class(self, module, name):
        if module == __name__ and name == "_shared":
            return self.persistent_load
        key = module, name
        found = _GLOBALS.get(key)
        if found is None:
            found = _GLOBALS[key] = super().find_class(module, name)
        return found

    def persistent_load(self, pid):
        module = self.function.module
        if pid == _FUNCTION:
            return self.function
        if pid == _MODULE:
            return module
        var = module.globals.get(pid)
        if var is None:
            raise TransportError(
                f"function {self.function.name} references unknown global @{pid}"
            )
        return var


class FunctionSnapshot:
    """A restorable, picklable image of one function's IR.

    Only the name and the image bytes pickle, so a snapshot taken in one
    process can be sent to another and installed there; an unpickled
    snapshot has no original function to :meth:`restore` into.
    """

    __slots__ = ("name", "data", "_function")

    def __init__(self, function: Function) -> None:
        self.name = function.name
        self._function: Optional[Function] = function
        buffer = io.BytesIO()
        # The image leads with the function's key, so a load that cannot
        # bind it fails before it builds any IR.
        _ImagePickler(buffer, function).dump((function, FunctionState(function)))
        self.data = buffer.getvalue()

    def __getstate__(self):
        return self.name, self.data

    def __setstate__(self, state) -> None:
        self.name, self.data = state
        self._function = None

    def restore(self) -> Function:
        """Install a fresh copy of the image into the original function."""
        self._load(self._function).install(self._function)
        return self._function

    def install(self, module: Module) -> Function:
        """Install a copy of the image into ``module``'s function of the
        same name, bound to ``module`` and its globals (by name)."""
        target = module.functions.get(self.name)
        if target is None:
            raise TransportError(f"module has no function {self.name}")
        self._load(target).install(target)
        return target

    def _load(self, function: Function) -> FunctionState:
        return _ImageUnpickler(io.BytesIO(self.data), function).load()[1]


def snapshot_function(function: Function) -> FunctionSnapshot:
    """Image ``function`` (sharing its module and global variables)."""
    return FunctionSnapshot(function)
