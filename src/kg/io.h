#ifndef DAAKG_KG_IO_H_
#define DAAKG_KG_IO_H_

#include <string>

#include "common/status.h"
#include "kg/alignment_task.h"
#include "kg/knowledge_graph.h"

namespace daakg {

// Text formats (OpenEA-style):
//
//   triples file   : one `head<TAB>relation<TAB>tail` per line; lines whose
//                    relation equals `type_relation` become entity-class
//                    triplets (the tail is a class).
//   matches file   : one `element1<TAB>element2` per line (names).
//
// Blank lines and lines starting with '#' are skipped.

inline constexpr char kDefaultTypeRelation[] = "rdf:type";

// Parses a triples file into a fresh (finalized) KnowledgeGraph.
StatusOr<KnowledgeGraph> LoadKgFromTsv(
    const std::string& path, const std::string& type_relation = kDefaultTypeRelation);

// Writes a finalized KG back out (forward triplets and type triplets only;
// synthetic reverse triplets are skipped so a round trip is lossless).
Status SaveKgToTsv(const KnowledgeGraph& kg, const std::string& path,
                   const std::string& type_relation = kDefaultTypeRelation);

// Loads a full task from a directory containing:
//   kg1_triples.tsv  kg2_triples.tsv
//   ent_matches.tsv  rel_matches.tsv  cls_matches.tsv
//   kgN_entities.tsv kgN_relations.tsv kgN_classes.tsv  (N = 1, 2)
// The schema match files and the vocabulary files are optional. A
// vocabulary file lists one name per line in id order (base relations
// only); its names are added before the triples are read, so ids and
// elements without any triplet survive a save/load round trip. Without
// vocabulary files ids follow first appearance in the triples file.
StatusOr<AlignmentTask> LoadAlignmentTask(const std::string& dir);

// Writes a task into `dir` (created if missing) in the layout above,
// vocabulary files included.
Status SaveAlignmentTask(const AlignmentTask& task, const std::string& dir);

}  // namespace daakg

#endif  // DAAKG_KG_IO_H_
