/**
 * @file
 * The content-addressed on-disk store of finished outcomes, shared
 * across evaluator instances, processes, and restarts. The content
 * hash only names a record's file: each record embeds the full spec
 * document, which is verified structurally on load, so a filename
 * collision or a corrupted file degrades to a cache miss — the
 * bit-identity guarantee never rests on hash uniqueness.
 */

#ifndef CAMJ_EXPLORE_CACHE_H
#define CAMJ_EXPLORE_CACHE_H

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "common/logging.h"
#include "core/report.h"
#include "spec/json.h"

namespace camj
{

/**
 * Content-address of a finished outcome: a streamed 64-bit hash of
 * the full spec document seeded with the store-format version. The
 * document embeds camjSpecVersion, so a spec-schema bump invalidates
 * every stored outcome automatically; the format seed invalidates
 * them when the RECORD format changes. Names the on-disk file only —
 * each record embeds the full document, verified on load.
 */
uint64_t outcomeCacheKey(const json::Value &spec_doc);

/** One persisted outcome: the verdict plus either the per-frame
 *  report (feasible) or the failure's text and rule (infeasible).
 *  Everything else in a SimulationOutcome (frames, SNR penalty) is
 *  derived from these and the SimulationOptions at load time. */
struct StoredOutcome
{
    bool feasible = false;
    /** ConfigError text for infeasible points; empty otherwise. */
    std::string error;
    /** The ConfigError's rule for infeasible points. */
    Rule rule = Rule::D003;
    /** Per-frame report; valid when feasible. */
    EnergyReport report;
};

/** Counters of OutcomeStore traffic. */
struct OutcomeStoreStats
{
    /** load() calls that returned a verified record. */
    size_t hits = 0;
    /** load() calls that found no file. */
    size_t misses = 0;
    /** Files present but rejected: parse failure, spec/version
     *  mismatch, or out-of-range fields (corruption, filename-hash
     *  collisions, stale formats) — all degrade to a rebuild. */
    size_t rejected = 0;
    /** store() calls that wrote a record. */
    size_t stores = 0;
    /** store() calls that failed (I/O); best-effort, never throws. */
    size_t storeFailures = 0;
};

/**
 * Content-addressed on-disk outcome store: one JSON file per design
 * point under a cache directory, named camj-<hex64(outcomeCacheKey)>
 * .json and embedding the full spec document. Concurrent writers are
 * safe: records are written to a temp file and atomically renamed
 * into place, and every load re-verifies the embedded document
 * structurally, so torn or foreign files read as misses.
 * Serialization uses src/spec/json only (%.17g doubles round-trip
 * bit-exactly).
 */
class OutcomeStore
{
  public:
    /** Creates @p dir if needed. @throws ConfigError when the
     *  directory cannot be created or is not writable. */
    explicit OutcomeStore(std::string dir);

    const std::string &dir() const { return dir_; }

    /** The record for @p spec_doc, or nullopt on miss/rejection. */
    std::optional<StoredOutcome> load(const json::Value &spec_doc);

    /** Persist @p outcome for @p spec_doc (best-effort: an I/O
     *  failure only bumps storeFailures). */
    void store(const json::Value &spec_doc,
               const StoredOutcome &outcome);

    /** The file a spec's outcome lives in (exposed for corruption
     *  tests). */
    std::string pathForDoc(const json::Value &spec_doc) const;

    const OutcomeStoreStats &stats() const { return stats_; }

  private:
    std::string dir_;
    OutcomeStoreStats stats_;
    unsigned long tempCounter_ = 0;
};

} // namespace camj

#endif // CAMJ_EXPLORE_CACHE_H
