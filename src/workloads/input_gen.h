// Synthetic input generation for the HiBench-style workloads.
//
// Generators are deterministic in the data seed and independent of the
// execution scheme, so all three schemes of one run process byte-identical
// inputs. Inputs are placed across datacenters with a configurable skew:
// by default 40% of blocks land in the first datacenter (where the
// driver/NameNode lives and ingest happens) and the rest spread evenly —
// geo-distributed but non-uniform, as in wide-area deployments.
#pragma once

#include <string>
#include <vector>

#include "common/rng.h"
#include "common/threadpool.h"
#include "engine/cluster.h"
#include "rdd/rdd.h"

namespace gs {

// Fraction of input bytes destined to each datacenter.
std::vector<double> DefaultDcWeights(int num_dcs);

// Distributes `partitions` record sets over worker nodes: datacenters get
// partition counts proportional to `dc_weights` (largest remainder), nodes
// within a datacenter round-robin.
std::vector<SourceRdd::Partition> PlacePartitions(
    const Topology& topo, std::vector<std::vector<Record>> partitions,
    const std::vector<double>& dc_weights);

// A deterministic vocabulary of `size` pseudo-words, 3-12 characters.
std::vector<std::string> MakeVocabulary(std::size_t size, Rng& rng);

// Lines of Zipf-distributed words totalling ~target_bytes.
std::vector<Record> MakeTextLines(Bytes target_bytes, int words_per_line,
                                  const std::vector<std::string>& vocab,
                                  const ZipfSampler& zipf, Rng& rng);

// Key alphabets for sortable record generation.
inline constexpr const char* kHexAlphabet = "0123456789abcdef";
// 64 printable characters spanning the ASCII range, for TeraSort-style
// high-entropy keys.
inline constexpr const char* kPrintableAlphabet =
    "!#$%&()*+,-./0123456789:;<=>?@ABCDEFGHIJKLMNOPQRSTUVWXYZ[]^_`{}~";

// Uniform-key records with 10-char keys over `key_alphabet`. When `vocab`
// is non-null, values are space-joined words (text-like, compressible);
// otherwise values are uniform random printable bytes (incompressible, as
// produced by gensort for TeraSort).
std::vector<Record> MakeKeyValueRecords(std::size_t count, int value_len,
                                        Rng& rng,
                                        const char* key_alphabet,
                                        const std::vector<std::string>* vocab);

// MakeKeyValueRecords(count, value_len, rng, key_alphabet, nullptr) split
// into `parts` chunks of ceil(count / parts) records, the last ones short
// or empty: the same draws and records. One serial pass draws the
// characters; tasks on `pool` build each chunk's records.
std::vector<std::vector<Record>> MakeKeyValueRecordParts(
    std::size_t count, int value_len, Rng& rng, const char* key_alphabet,
    int parts, ThreadPool& pool);

// Evenly spaced two-character boundaries over `alphabet` for `num_shards`
// range partitions of 10-char uniform keys.
std::vector<std::string> UniformBoundaries(int num_shards,
                                           const char* alphabet);

// A power-law web graph: returns one record per page, key = page id,
// value = adjacency list (vector<string> of page ids).
std::vector<Record> MakeWebGraph(std::size_t num_pages, double avg_degree,
                                 Rng& rng);

// Labelled documents for NaiveBayes: key = class label, value = text.
std::vector<Record> MakeLabelledDocs(std::size_t num_docs, int num_classes,
                                     int terms_per_doc,
                                     const std::vector<std::string>& vocab,
                                     const ZipfSampler& zipf, Rng& rng);

}  // namespace gs
