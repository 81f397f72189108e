"""Exception hierarchy shared by all gatedflow modules."""


class FlowError(Exception):
    """Base class for every error raised by gatedflow.

    ``component``, once set, names the component whose build raised the
    error, and the message starts with it: ``make_component`` sets it.
    """

    component = None

    def __str__(self):
        message = super().__str__()
        if self.component is None:
            return message
        return f"component {self.component!r}: {message}"


# --- channel layer ---

class DuplicateSubject(FlowError):
    def __init__(self, namespace):
        super().__init__(f"a subject already exists for namespace {namespace!r}")
        self.namespace = namespace


class RegistrySealed(FlowError):
    """Raised when subjects/observers are created after the registry is sealed."""


class RegistryNotSealed(FlowError):
    """Raised when channel traffic is attempted before seal_and_bind."""


class IncompleteGraph(FlowError):
    def __init__(self, namespaces):
        self.namespaces = sorted(namespaces)
        super().__init__(
            "observers have no producing subject for namespaces: "
            + ", ".join(self.namespaces)
        )


class ChannelTimeout(FlowError):
    def __init__(self, namespace, op, timeout):
        super().__init__(f"{op} on {namespace!r} timed out after {timeout}s")
        self.namespace = namespace
        self.op = op


class ChannelPoisoned(FlowError):
    """The registry was poisoned while (or before) blocking on a channel."""


class AlreadyInitialised(FlowError):
    pass


class ValueTypeError(FlowError):
    """A published value is not one of the supported scalar types."""


# --- step scripting ---

class ScriptSyntaxError(FlowError):
    def __init__(self, message, line, column):
        super().__init__(f"line {line}, col {column}: {message}")
        self.line = line
        self.column = column


class UseBeforeAssign(FlowError):
    """A name that is not an io_map key is read before any assignment."""


# the runtime reports the same condition under this name
UnknownInternalName = UseBeforeAssign


class DoubleWrite(FlowError):
    pass


class WriteBeforeReadSelfLoop(FlowError):
    pass


class DivisionByZero(FlowError):
    pass


class TypeMismatch(FlowError):
    pass


class MissingInput(FlowError):
    pass


class UnknownCallee(FlowError):
    pass


# --- component runtime ---

class BadOverride(FlowError):
    pass


# --- registry / factories ---

class DuplicateRegistration(FlowError):
    pass


class InvalidDescriptor(FlowError):
    pass


class AmbiguousArgument(FlowError):
    pass


class ArgumentOutOfBounds(FlowError):
    """A supplied value that its bounded descriptor does not contain."""


class UnknownExperiment(FlowError):
    pass


class UnknownType(FlowError):
    pass


class UnusedArgument(FlowError):
    def __init__(self, keys):
        self.keys = sorted(keys)
        super().__init__("experiment arguments never consumed: " + ", ".join(self.keys))


# --- study engine ---

class NoCompleteTrials(FlowError):
    pass


class StudyAborted(FlowError):
    pass


# --- experiment store ---

class RunClosed(FlowError):
    pass


class PrimaryUnavailable(FlowError):
    pass


class NonNumericValue(FlowError):
    pass


# --- viz ---

class EmptyInput(FlowError):
    pass


# --- reference oracle ---

class OracleStuck(FlowError):
    def __init__(self, components):
        self.components = sorted(components)
        super().__init__(
            "no component can fire; stuck: " + ", ".join(self.components)
        )
