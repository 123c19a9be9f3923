"""Error hierarchy shared by every layer of the Ficus stack.

The vnode interface reports failures the way a Unix kernel does: a small set
of errno-like conditions.  Every layer (UFS, NFS, Ficus physical, Ficus
logical) raises from this hierarchy so that errors pass transparently through
layer boundaries, exactly as error codes pass through stacked vnode layers in
the paper's SunOS implementation.
"""

from __future__ import annotations


class FicusError(Exception):
    """Base class for every error raised by the repro package."""

    errno_name = "EIO"

    def __init__(self, message: str = ""):
        super().__init__(message or self.__class__.__doc__ or self.errno_name)


class FileNotFound(FicusError):
    """ENOENT: no such file or directory."""

    errno_name = "ENOENT"


class FileExists(FicusError):
    """EEXIST: file exists."""

    errno_name = "EEXIST"


class NotADirectory(FicusError):
    """ENOTDIR: a path component used as a directory is not one."""

    errno_name = "ENOTDIR"


class IsADirectory(FicusError):
    """EISDIR: the operation is not valid on a directory."""

    errno_name = "EISDIR"


class DirectoryNotEmpty(FicusError):
    """ENOTEMPTY: directory not empty."""

    errno_name = "ENOTEMPTY"


class NoSpace(FicusError):
    """ENOSPC: no space left on device."""

    errno_name = "ENOSPC"


class NameTooLong(FicusError):
    """ENAMETOOLONG: file name component too long."""

    errno_name = "ENAMETOOLONG"


class InvalidArgument(FicusError):
    """EINVAL: invalid argument."""

    errno_name = "EINVAL"


class PermissionDenied(FicusError):
    """EACCES: permission denied."""

    errno_name = "EACCES"


class CrossDevice(FicusError):
    """EXDEV: cross-device (here: cross-volume) link or rename."""

    errno_name = "EXDEV"


class StaleFileHandle(FicusError):
    """ESTALE: the (NFS) file handle no longer names a live object."""

    errno_name = "ESTALE"


class IOError_(FicusError):
    """EIO: low-level input/output error (e.g. failed simulated disk)."""

    errno_name = "EIO"


class NotSupported(FicusError):
    """ENOTSUP: the layer does not implement this vnode operation."""

    errno_name = "ENOTSUP"


class HostUnreachable(FicusError):
    """EHOSTUNREACH: the remote host cannot be contacted (partition/crash)."""

    errno_name = "EHOSTUNREACH"


class RpcTimeout(HostUnreachable):
    """ETIMEDOUT: an RPC gave up after retransmissions."""

    errno_name = "ETIMEDOUT"


class ServiceUnavailable(FicusError):
    """ECONNREFUSED: the peer is up and reachable but exports no such service.

    Deliberately NOT a :class:`HostUnreachable`: a missing export is a
    configuration error that no amount of retrying or waiting out a
    partition will fix, so retry policies must not treat it as transient.
    """

    errno_name = "ECONNREFUSED"


class AllReplicasUnavailable(FicusError):
    """No replica of the logical file is currently accessible.

    Under one-copy availability this is the *only* condition that makes a
    Ficus operation fail for replication reasons.
    """

    errno_name = "ENOREPLICA"


class QuorumNotAvailable(FicusError):
    """A baseline replica-control policy could not assemble its quorum."""

    errno_name = "ENOQUORUM"


class CrashInjected(FicusError):
    """Raised by failure-injection points to simulate a host crash."""

    errno_name = "ECRASH"
