"""The virtual cluster the simulated platforms run on."""

from __future__ import annotations

from .profiles import HardwareProfile, PlatformProfile
from .vfs import VirtualFileSystem


class SimulatedOutOfMemory(RuntimeError):
    """Raised when a platform's simulated memory capacity is exceeded.

    Mirrors the out-of-memory / "killed after one hour" failures the paper
    reports for JGraph and SystemML on large inputs.
    """

    def __init__(self, platform: str, needed_mb: float, cap_mb: float) -> None:
        super().__init__(
            f"{platform}: needs {needed_mb:.1f} MB but capacity is {cap_mb:.1f} MB"
        )
        self.platform = platform
        self.needed_mb = needed_mb
        self.cap_mb = cap_mb


class VirtualCluster:
    """Bundles hardware, platform profiles and the virtual file system.

    One cluster is shared by all platforms of a :class:`~repro.core.context.
    RheemContext`; tests may build isolated clusters with tweaked profiles.
    By default it holds the profile of every built-in platform, so it
    prices them without a context.
    """

    def __init__(
        self,
        hardware: HardwareProfile | None = None,
        profiles: dict[str, PlatformProfile] | None = None,
    ) -> None:
        self.hardware = hardware or HardwareProfile()
        if profiles is None:
            # Imported here: the platforms import the core, which imports
            # this module.
            from ..platforms import builtin_platforms

            profiles = {p.name: p.profile for p in builtin_platforms()}
        self.profiles = dict(profiles)
        self.vfs = VirtualFileSystem()

    def profile(self, platform: str) -> PlatformProfile:
        """The performance profile for ``platform``.

        Raises:
            KeyError: If the platform has no registered profile.
        """
        return self.profiles[platform]

    def set_profile(self, profile: PlatformProfile) -> None:
        """Install or replace a platform profile (what-if experiments)."""
        self.profiles[profile.name] = profile

    def check_memory(self, platform: str, needed_mb: float) -> None:
        """Fail the simulated job if ``platform`` cannot hold ``needed_mb``.

        Raises:
            SimulatedOutOfMemory: If the platform's capacity is exceeded.
        """
        cap = self.profiles[platform].memory_cap_mb
        if needed_mb > cap:
            raise SimulatedOutOfMemory(platform, needed_mb, cap)
