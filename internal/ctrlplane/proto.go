package ctrlplane

import (
	"encoding/json"
	"time"

	"ipsa/internal/flowstat"
	"ipsa/internal/health"
	"ipsa/internal/intmd"
	"ipsa/internal/telemetry"
	"ipsa/internal/template"
)

// The CCM protocol is newline-free JSON objects streamed over TCP: each
// Request gets exactly one Response, in order.

// Op names a control operation.
type Op string

// Control operations.
const (
	OpApplyConfig  Op = "apply_config"
	OpInsertEntry  Op = "insert_entry"
	OpDeleteEntry  Op = "delete_entry"
	OpAddMember    Op = "add_member"
	OpListTables   Op = "list_tables"
	OpTableStats   Op = "table_stats"
	OpReadRegister Op = "read_register"
	OpDeviceStats  Op = "device_stats"
	OpMetricsDump  Op = "metrics_dump"
	OpTraceDump    Op = "trace_dump"
	OpIntEnable    Op = "int_enable"
	OpIntDisable   Op = "int_disable"
	OpIntReport    Op = "int_report"
	OpEventsDump   Op = "events_dump"
	OpHealthQuery  Op = "health_query"
	OpFlowDump     Op = "flow_dump"
	OpFlowRecords  Op = "flow_records"
	OpHHDump       Op = "hh_dump"
	OpDropDump     Op = "drop_dump"
	OpPing         Op = "ping"

	// Edit-script ops: a begin/ops/commit transaction that inserts,
	// deletes or rewires individual TSP stages and tables instead of
	// shipping a whole configuration. Stage edits ride edit_tsp, table
	// edits ride edit_table; commit publishes the accumulated script as
	// one (hitless, on ipbm) reconfiguration.
	OpEditBegin  Op = "edit_begin"
	OpEditTSP    Op = "edit_tsp"
	OpEditTable  Op = "edit_table"
	OpEditCommit Op = "edit_commit"
	OpEditAbort  Op = "edit_abort"
)

// Request is one control-channel message.
type Request struct {
	Op Op `json:"op"`
	// Config serves apply_config.
	Config *template.Config `json:"config,omitempty"`
	// Entry serves insert_entry.
	Entry *EntryReq `json:"entry,omitempty"`
	// Member serves add_member.
	Member *MemberReq `json:"member,omitempty"`
	// Table/Handle serve delete_entry and table_stats.
	Table  string `json:"table,omitempty"`
	Handle int    `json:"handle,omitempty"`
	// Register/Index serve read_register.
	Register string `json:"register,omitempty"`
	Index    uint64 `json:"index,omitempty"`
	// Max bounds trace_dump (0 means all buffered records).
	Max int `json:"max,omitempty"`
	// WindowNanos overrides the rate window of health_query (0 uses the
	// device's default).
	WindowNanos int64 `json:"window_nanos,omitempty"`
	// Edit serves edit_tsp and edit_table.
	Edit *EditOp `json:"edit,omitempty"`
}

// Response answers a Request.
type Response struct {
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`

	Handle  int                     `json:"handle,omitempty"`
	Tables  []TableStatus           `json:"tables,omitempty"`
	Stats   *TableStats             `json:"stats,omitempty"`
	Value   uint64                  `json:"value,omitempty"`
	Device  *DeviceStats            `json:"device,omitempty"`
	Apply   *ApplyStats             `json:"apply,omitempty"`
	Metrics []telemetry.MetricPoint `json:"metrics,omitempty"`
	Traces  []telemetry.TraceRecord `json:"traces,omitempty"`
	Events  []telemetry.Event       `json:"events,omitempty"`
	Reports []intmd.Report          `json:"reports,omitempty"`
	Health  *health.Status          `json:"health,omitempty"`
	Edit    *EditStats              `json:"edit,omitempty"`
	Flows   []flowstat.Record       `json:"flows,omitempty"`
	Hitters []flowstat.HeavyHitter  `json:"hitters,omitempty"`
	Drops   []telemetry.DropRecord  `json:"drops,omitempty"`
	Extra   json.RawMessage         `json:"extra,omitempty"`
}

// TableStatus summarizes one installed logical table.
type TableStatus struct {
	Name     string `json:"name"`
	Kind     string `json:"kind"`
	KeyWidth int    `json:"key_width"`
	Size     int    `json:"size"`
	Entries  int    `json:"entries"`
	Selector bool   `json:"selector,omitempty"`
}

// TableStats carries a table's hit/miss counters.
type TableStats struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
}

// PortStats carries one port's packet counters in a device snapshot.
type PortStats struct {
	Port     int    `json:"port"`
	Sent     uint64 `json:"sent"`
	Received uint64 `json:"received"`
	RxDrops  uint64 `json:"rx_drops,omitempty"`
	TxDrops  uint64 `json:"tx_drops,omitempty"`
}

// DeviceStats snapshots the data plane's counters. Ports is optional so
// older devices (and their JSON) stay wire-compatible.
type DeviceStats struct {
	Processed       uint64      `json:"processed"`
	Dropped         uint64      `json:"dropped"`
	ToCPU           uint64      `json:"to_cpu"`
	ActiveTSPs      int         `json:"active_tsps"`
	TemplateLoads   uint64      `json:"template_loads"`
	InvalidAccesses uint64      `json:"invalid_accesses"`
	Ports           []PortStats `json:"ports,omitempty"`
}

// ApplyStats reports what a configuration download changed, the numbers
// behind the loading-time comparison of Table 1.
type ApplyStats struct {
	TSPsWritten     int   `json:"tsps_written"`
	TablesCreated   int   `json:"tables_created"`
	TablesDropped   int   `json:"tables_dropped"`
	SelectorMoved   bool  `json:"selector_moved"`
	EntriesMigrated int   `json:"entries_migrated"`
	LoadNanos       int64 `json:"load_nanos"`
	Full            bool  `json:"full"` // full install vs incremental patch

	// Epoch-store fields: set when the device published the new program
	// as an epoch of a versioned store. Epoch is the published version
	// id; StagesRecompiled/StagesReused split the stage set by whether
	// structural hashing let the compiler reuse the previous epoch's
	// compiled stage.
	Epoch            uint64 `json:"epoch,omitempty"`
	StagesRecompiled int    `json:"stages_recompiled,omitempty"`
	StagesReused     int    `json:"stages_reused,omitempty"`
}

// EditOp is one step of an edit script. Kind selects the mutation:
//
//	set_stage    — create or replace stage Stage with Spec, merging any
//	               Actions it needs; a new stage is wired into the
//	               ingress (Egress=false) or egress chain at Position
//	               (append when Position < 0) and assigned to TSP.
//	delete_stage — remove stage Stage from the config, its chain and
//	               its TSP assignment.
//	set_table    — create or replace table Table with TableSpec.
//	delete_table — drop table Table (stages referencing it must be
//	               rewritten or deleted in the same script, or commit
//	               fails validation).
type EditOp struct {
	Kind      string                      `json:"kind"`
	Stage     string                      `json:"stage,omitempty"`
	Spec      *template.Stage             `json:"spec,omitempty"`
	Actions   map[string]*template.Action `json:"actions,omitempty"`
	TSP       int                         `json:"tsp,omitempty"`
	Egress    bool                        `json:"egress,omitempty"`
	Position  int                         `json:"position,omitempty"`
	Table     string                      `json:"table,omitempty"`
	TableSpec *template.Table             `json:"table_spec,omitempty"`
}

// EditStats summarizes a committed edit script.
type EditStats struct {
	Ops   int         `json:"ops"`
	Apply *ApplyStats `json:"apply,omitempty"`
}

// EditSource is optionally implemented by devices that support
// edit-script partial reconfiguration (begin/ops/commit transactions).
type EditSource interface {
	EditBegin() error
	EditApply(op EditOp) error
	EditCommit() (*EditStats, error)
	EditAbort() error
}

// Device is the behaviour a control server exposes; ipbm implements it.
type Device interface {
	ApplyConfig(cfg *template.Config) (*ApplyStats, error)
	InsertEntry(req EntryReq) (handle int, err error)
	DeleteEntry(table string, handle int) error
	AddMember(req MemberReq) error
	ListTables() []TableStatus
	TableStats(table string) (*TableStats, error)
	ReadRegister(name string, index uint64) (uint64, error)
	Stats() *DeviceStats
}

// TelemetrySource is optionally implemented by devices with an
// observability subsystem; the CCM probes for it so plain Devices keep
// working unchanged.
type TelemetrySource interface {
	MetricsDump() []telemetry.MetricPoint
	TraceDump(max int) []telemetry.TraceRecord
}

// IntSource is optionally implemented by devices whose data plane can
// stamp and sink INT metadata; the CCM probes for it like
// TelemetrySource.
type IntSource interface {
	SetInt(enabled bool) error
	IntReport(max int) []intmd.Report
}

// EventSource is optionally implemented by devices that keep a
// reconfiguration audit trail.
type EventSource interface {
	EventsDump(max int) []telemetry.Event
}

// HealthSource is optionally implemented by devices with a health layer;
// window <= 0 selects the device's default rate window.
type HealthSource interface {
	HealthQuery(window time.Duration) *health.Status
}

// FlowSource is optionally implemented by devices with flow-level
// accounting: active-flow dumps, the exported flow-record stream and
// heavy-hitter estimates. max <= 0 selects the device's default bound.
type FlowSource interface {
	FlowDump(max int) []flowstat.Record
	FlowRecords(max int) []flowstat.Record
	HHDump(max int) []flowstat.HeavyHitter
}

// DropSource is optionally implemented by devices with a sampled
// drop-capture ring (dropwatch-style loss forensics); max <= 0 dumps the
// whole ring, newest first.
type DropSource interface {
	DropDump(max int) []telemetry.DropRecord
}
