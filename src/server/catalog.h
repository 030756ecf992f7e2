/// \file catalog.h
/// \brief The vpbnd document catalog: named documents and named virtual
/// views, hot-reloadable under an epoch counter.
///
/// Every entry is an immutable bundle — the stored document, one prepared
/// QueryEngine over it, and one (VirtualDocument, QueryEngine) pair per
/// named view — published behind a `shared_ptr<const CatalogEntry>`. A
/// lookup hands out that shared_ptr; a reload *replaces* the pointer with a
/// freshly built bundle at epoch+1 and never mutates the old one, so
/// queries in flight against the old epoch finish correctly on the old
/// instance while new queries observe the new epoch (the paper's
/// virtual-hierarchies-as-cheap-views argument, applied to the document
/// lifecycle itself).
///
/// Releasing a replaced generation is not free — a queried snapshot
/// document frees its hydrated numbering and lazy caches, 15-25 ms at the
/// `views` benchmark's scale — so the catalog never does it on the request
/// path: a replaced entry goes to a background reaper thread, and RELOAD
/// answers as soon as the new generation is published. (A query still
/// holding the old generation drops its reference when it finishes, as
/// before.)
///
/// Epochs start at 1 on first load and increment on every reload. Each
/// entry's engines carry the entry's epoch (QueryEngine::SetEpoch), which
/// stamps every prepared plan — a plan prepared against a replaced document
/// cannot execute against the new one — and keys the server's result cache,
/// so a reload invalidates cached results for free.

#pragma once

#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "query/engine.h"
#include "storage/stored_document.h"
#include "vpbn/virtual_document.h"

namespace vpbn::server {

/// \brief Where a document's bytes come from on (re)load.
struct DocumentSource {
  enum class Kind {
    kXmlFile,       ///< parse + build from an XML file
    kSnapshotFile,  ///< storage::Snapshot load (PR 5 "VPSN")
    kXmlText,       ///< parse + build from in-memory XML (tests, benches)
  };
  Kind kind = Kind::kXmlFile;
  std::string value;  ///< file path, or the XML text itself for kXmlText
};

/// \brief One named virtual view of a catalog document.
struct CatalogView {
  std::string name;
  std::string spec;  ///< vDataGuide spec text
  std::shared_ptr<const virt::VirtualDocument> vdoc;
  std::shared_ptr<const query::QueryEngine> engine;
};

/// \brief One immutable generation of a named document. Never mutated after
/// publication; a reload builds a replacement at epoch+1.
struct CatalogEntry {
  std::string name;
  DocumentSource source;
  uint64_t epoch = 0;
  std::shared_ptr<const storage::StoredDocument> stored;
  std::shared_ptr<const query::QueryEngine> engine;  ///< over `stored`
  std::map<std::string, CatalogView> views;          ///< by view name

  /// The engine serving (this document, \p view_name): the view's engine,
  /// or the stored-document engine for an empty view name. NotFound for an
  /// unknown view.
  Result<std::shared_ptr<const query::QueryEngine>> EngineFor(
      const std::string& view_name) const;
};

/// \brief Thread-safe registry of named documents. Loads run outside the
/// registry lock, so a slow reload never blocks lookups.
class Catalog {
 public:
  /// \p default_options seeds every engine's SetDefaultOptions (vpbnd
  /// passes the ExecOptions defaults). \p use_mmap
  /// selects how `.vpsn` sources load: memory-mapped (the default — v2
  /// snapshots then serve straight from the page cache) or copied.
  explicit Catalog(query::ExecOptions default_options = {},
                   bool use_mmap = true)
      : default_options_(default_options), use_mmap_(use_mmap) {}

  /// Joins the reaper after it has released every retired generation.
  ~Catalog();

  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  /// \name Registration
  /// Adding a name that already exists is InvalidArgument (use Reload).
  /// @{

  /// Load from a file. Paths ending in ".vpsn" load as snapshots; anything
  /// else parses as XML.
  Status AddDocumentFile(const std::string& name, const std::string& path);

  /// Build from in-memory XML text.
  Status AddDocumentXml(const std::string& name, std::string xml_text);

  /// Attach a named virtual view to an existing document. Republishes the
  /// entry (same epoch — the document bytes did not change).
  Status AddView(const std::string& doc_name, const std::string& view_name,
                 const std::string& spec);
  /// @}

  /// \name Lifecycle
  /// @{

  /// Rebuild \p name from its source at epoch+1, re-opening every view.
  /// Returns the new epoch.
  Result<uint64_t> Reload(const std::string& name);

  /// Swap an in-memory document's XML text and reload — the reload path
  /// tests and benches drive without touching the filesystem.
  Result<uint64_t> ReplaceDocumentXml(const std::string& name,
                                      std::string xml_text);
  /// @}

  /// Current entry for \p name, or nullptr. The caller's shared_ptr keeps
  /// the whole generation (document, views, engines) alive across reloads.
  std::shared_ptr<const CatalogEntry> Find(const std::string& name) const;

  /// All current entries, ordered by name.
  std::vector<std::shared_ptr<const CatalogEntry>> List() const;

  size_t size() const;

 private:
  /// Load + index + open views; runs without holding mu_.
  Result<std::shared_ptr<const CatalogEntry>> BuildEntry(
      const std::string& name, const DocumentSource& source, uint64_t epoch,
      const std::map<std::string, std::string>& view_specs) const;

  /// Hands a replaced generation to the reaper thread (started on first
  /// use), which drops the reference off the request path. Callers pass
  /// their last reference, so when no query holds the generation the
  /// reaper is the one that frees it.
  void Retire(std::shared_ptr<const CatalogEntry> old);
  void ReapLoop();

  const query::ExecOptions default_options_;
  const bool use_mmap_ = true;
  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<const CatalogEntry>> docs_;

  std::mutex reap_mu_;
  std::condition_variable reap_cv_;
  std::vector<std::shared_ptr<const CatalogEntry>> retired_;
  bool reap_stop_ = false;
  std::thread reaper_;
};

}  // namespace vpbn::server
