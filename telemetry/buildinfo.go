package telemetry

import (
	"runtime"
	"runtime/debug"
	"sync"
)

// BuildInfo identifies the running binary so scrapes and reports can
// correlate performance shifts with deploys: which module version is
// serving, which Go toolchain built it, and which block-kernel set dispatch
// selected on this host. It is exported on every surface — the
// szx_build_info series on /metrics and in Snap (and therefore expvar),
// and the header of the -stats text report.
type BuildInfo struct {
	Module    string `json:"module"`
	Version   string `json:"version"`
	VCSRev    string `json:"vcs_revision,omitempty"`
	GoVersion string `json:"go_version"`
	// Kernels is the dispatch decision in its human-readable form, e.g.
	// "avx2 (cpu feature detection)"; read at call time because the codec
	// package registers it at init.
	Kernels string `json:"kernels"`
}

var (
	buildInfoOnce sync.Once
	buildInfo     BuildInfo
)

// GetBuildInfo assembles the binary's build identity. The static parts
// (module path, version, VCS revision, Go version) are read once from the
// runtime's embedded build information; the kernel set reflects the current
// dispatch registration.
func GetBuildInfo() BuildInfo {
	buildInfoOnce.Do(func() {
		buildInfo = BuildInfo{Version: "(devel)", GoVersion: runtime.Version()}
		if bi, ok := debug.ReadBuildInfo(); ok {
			buildInfo.Module = bi.Main.Path
			if bi.Main.Version != "" {
				buildInfo.Version = bi.Main.Version
			}
			for _, s := range bi.Settings {
				if s.Key == "vcs.revision" && len(s.Value) >= 12 {
					buildInfo.VCSRev = s.Value[:12]
				}
			}
		}
	})
	bi := buildInfo
	bi.Kernels = KernelDispatchDetail()
	if bi.Kernels == "" {
		bi.Kernels = "unregistered"
	}
	return bi
}
