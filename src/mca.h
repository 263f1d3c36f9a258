// Umbrella header: the whole public API of the MCA library.
//
// Fine-grained includes are preferred inside the library itself; this
// header is for applications that want everything.
#pragma once

// Core: coloured atomic actions and the runtime.
#include "core/action_context.h"
#include "core/atomic_action.h"
#include "core/colour.h"
#include "core/runtime.h"

// §3 structures and extensions.
#include "core/structures/colour_plan.h"
#include "core/structures/compensating_action.h"
#include "core/structures/glued_action.h"
#include "core/structures/independent_action.h"
#include "core/structures/serializing_action.h"

// Persistent objects.
#include "objects/commutative_counter.h"
#include "objects/lock_managed.h"
#include "objects/recoverable_int.h"
#include "objects/recoverable_log.h"
#include "objects/recoverable_map.h"
#include "objects/recoverable_set.h"
#include "objects/recoverable_string.h"
#include "objects/state_manager.h"

// Storage.
#include "storage/faulty_store.h"
#include "storage/memory_store.h"
#include "storage/object_store.h"
#include "storage/wal_store.h"

// Distribution.
#include "dist/node.h"
#include "dist/remote.h"
#include "dist/remote_files.h"
#include "dist/rpc.h"
#include "replication/replica_group.h"
#include "sim/fault_injector.h"
#include "sim/network.h"

// Example applications.
#include "apps/bboard/bulletin_board.h"
#include "apps/billing/billing.h"
#include "apps/diary/scheduler.h"
#include "apps/make/make_engine.h"
#include "apps/names/name_server.h"
#include "apps/pipeline/pipeline.h"
