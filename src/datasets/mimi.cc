#include "datasets/mimi.h"

#include <cmath>

#include "common/logging.h"
#include "common/random.h"
#include "schema/schema_builder.h"

namespace ssum {

const char* MimiVersionName(MimiVersion v) {
  switch (v) {
    case MimiVersion::kApr2004:
      return "Apr 2004";
    case MimiVersion::kJan2005:
      return "Jan 2005";
    case MimiVersion::kJan2006:
      return "Jan 2006";
  }
  return "?";
}

MimiDataset::MimiDataset(MimiParams params) : params_(params) {
  SchemaBuilder b("mimi");

  // --- organisms -------------------------------------------------------------
  organisms_ = b.Rcd(b.Root(), "organisms");
  organism_ = b.SetRcd(organisms_, "organism");
  org_id_ = b.Attr(organism_, "id", AtomicKind::kId);
  org_name_ = b.Simple(organism_, "scientific_name");
  org_common_ = b.Simple(organism_, "common_name");
  strain_ = b.Simple(organism_, "strain");
  taxonomy_ = b.Rcd(organism_, "taxonomy");
  kingdom_ = b.Simple(taxonomy_, "kingdom");
  phylum_ = b.Simple(taxonomy_, "phylum");
  tax_class_ = b.Simple(taxonomy_, "class");
  tax_order_ = b.Simple(taxonomy_, "order");
  family_ = b.Simple(taxonomy_, "family");
  genus_ = b.Simple(taxonomy_, "genus");
  species_ = b.Simple(taxonomy_, "species");
  genome_ = b.Rcd(organism_, "genome");  // sparse
  assembly_ = b.Simple(genome_, "assembly");
  genome_size_ = b.Simple(genome_, "size", AtomicKind::kInt);
  gene_count_ = b.Simple(genome_, "gene_count", AtomicKind::kInt);

  // --- sources ---------------------------------------------------------------
  sources_ = b.Rcd(b.Root(), "sources");
  source_ = b.SetRcd(sources_, "source");
  src_id_ = b.Attr(source_, "id", AtomicKind::kId);
  src_name_ = b.Simple(source_, "name");
  src_version_ = b.Simple(source_, "version");
  src_url_ = b.Simple(source_, "url");
  src_imported_ = b.Simple(source_, "imported_date", AtomicKind::kDate);
  src_records_ = b.Simple(source_, "record_count", AtomicKind::kInt);
  src_contact_ = b.Simple(source_, "contact");
  src_license_ = b.Simple(source_, "license");
  src_citation_ = b.Simple(source_, "citation_policy");

  // --- molecules (the central protein entity) --------------------------------
  molecules_ = b.Rcd(b.Root(), "molecules");
  molecule_ = b.SetRcd(molecules_, "molecule");
  mol_id_ = b.Attr(molecule_, "id", AtomicKind::kId);
  mol_type_ = b.Attr(molecule_, "type");
  mol_name_ = b.Simple(molecule_, "name");
  symbol_ = b.Simple(molecule_, "symbol");
  mol_desc_ = b.Simple(molecule_, "description");
  created_ = b.Simple(molecule_, "created_date", AtomicKind::kDate);
  modified_ = b.Simple(molecule_, "modified_date", AtomicKind::kDate);
  organism_ref_ = b.Simple(molecule_, "organism_ref", AtomicKind::kIdRef);
  sequence_ = b.Rcd(molecule_, "sequence");
  seq_length_ = b.Simple(sequence_, "length", AtomicKind::kInt);
  seq_checksum_ = b.Simple(sequence_, "checksum");
  seq_residues_ = b.Simple(sequence_, "residues");
  seq_form_ = b.Simple(sequence_, "molecular_form");
  gene_ = b.Rcd(molecule_, "gene");
  locus_ = b.Simple(gene_, "locus");
  chromosome_ = b.Simple(gene_, "chromosome");
  gene_start_ = b.Simple(gene_, "start", AtomicKind::kInt);
  gene_end_ = b.Simple(gene_, "end", AtomicKind::kInt);
  strand_ = b.Simple(gene_, "strand");
  map_location_ = b.Simple(gene_, "map_location");
  protein_props_ = b.Rcd(molecule_, "protein_properties");
  mol_weight_ = b.Simple(protein_props_, "molecular_weight", AtomicKind::kFloat);
  iso_point_ = b.Simple(protein_props_, "isoelectric_point", AtomicKind::kFloat);
  prop_length_ = b.Simple(protein_props_, "length", AtomicKind::kInt);
  structure_ = b.Rcd(molecule_, "structure");  // sparse (solved structures)
  pdb_id_ = b.Simple(structure_, "pdb_id", AtomicKind::kId);
  resolution_ = b.Simple(structure_, "resolution", AtomicKind::kFloat);
  struct_method_ = b.Simple(structure_, "method");
  chains_ = b.Simple(structure_, "chains", AtomicKind::kInt);
  deposited_ = b.Simple(structure_, "deposited_date", AtomicKind::kDate);
  external_accession_ =
      b.SetSimple(molecule_, "external_accession", AtomicKind::kIdRef);
  synonyms_ = b.Rcd(molecule_, "synonyms");
  synonym_ = b.SetSimple(synonyms_, "synonym");
  keywords_ = b.Rcd(molecule_, "keywords");
  keyword_ = b.SetSimple(keywords_, "keyword");
  cellular_locations_ = b.Rcd(molecule_, "cellular_locations");
  cellular_location_ = b.SetSimple(cellular_locations_, "cellular_location");
  tissue_expressions_ = b.Rcd(molecule_, "tissue_expressions");
  tissue_expression_ = b.SetRcd(tissue_expressions_, "tissue_expression");
  tissue_ = b.Simple(tissue_expression_, "tissue");
  level_ = b.Simple(tissue_expression_, "level");
  annotations_ = b.Rcd(molecule_, "annotations");
  go_annotation_ = b.SetRcd(annotations_, "go_annotation");
  go_id_ = b.Attr(go_annotation_, "go_id");
  go_aspect_ = b.Simple(go_annotation_, "aspect");
  go_evidence_ = b.Simple(go_annotation_, "evidence");
  go_term_ = b.Simple(go_annotation_, "term");
  pathway_ref_ = b.SetSimple(annotations_, "pathway_ref", AtomicKind::kIdRef);
  function_note_ = b.SetSimple(annotations_, "function_note");
  domain_hit_ = b.SetRcd(molecule_, "domain_hit");
  dh_domain_ = b.Attr(domain_hit_, "domain", AtomicKind::kIdRef);
  dh_start_ = b.Simple(domain_hit_, "start", AtomicKind::kInt);
  dh_end_ = b.Simple(domain_hit_, "end", AtomicKind::kInt);
  dh_score_ = b.Simple(domain_hit_, "score", AtomicKind::kFloat);
  interaction_ref_ =
      b.SetSimple(molecule_, "interaction_ref", AtomicKind::kIdRef);

  // --- interactions ------------------------------------------------------------
  interactions_ = b.Rcd(b.Root(), "interactions");
  interaction_ = b.SetRcd(interactions_, "interaction");
  int_id_ = b.Attr(interaction_, "id", AtomicKind::kId);
  int_type_ = b.Attr(interaction_, "type");
  participant_a_ = b.Simple(interaction_, "participant_a", AtomicKind::kIdRef);
  participant_b_ = b.Simple(interaction_, "participant_b", AtomicKind::kIdRef);
  experiment_ref_ =
      b.SetSimple(interaction_, "experiment_ref", AtomicKind::kIdRef);
  confidence_ = b.Rcd(interaction_, "confidence");
  conf_score_ = b.Simple(confidence_, "score", AtomicKind::kFloat);
  conf_method_ = b.Simple(confidence_, "method");
  detection_ = b.Rcd(interaction_, "detection");
  det_method_ = b.Simple(detection_, "method");
  det_class_ = b.Simple(detection_, "confidence_class");
  kinetics_ = b.Rcd(interaction_, "kinetics");  // sparse
  kd_ = b.Simple(kinetics_, "kd", AtomicKind::kFloat);
  kon_ = b.Simple(kinetics_, "kon", AtomicKind::kFloat);
  koff_ = b.Simple(kinetics_, "koff", AtomicKind::kFloat);
  kin_unit_ = b.Simple(kinetics_, "unit");
  binding_site_ = b.SetRcd(interaction_, "binding_site");
  site_start_ = b.Simple(binding_site_, "start", AtomicKind::kInt);
  site_end_ = b.Simple(binding_site_, "end", AtomicKind::kInt);
  site_motif_ = b.Simple(binding_site_, "motif");
  provenance_source_ =
      b.Simple(interaction_, "provenance_source", AtomicKind::kIdRef);

  // --- experiments ---------------------------------------------------------------
  experiments_ = b.Rcd(b.Root(), "experiments");
  experiment_ = b.SetRcd(experiments_, "experiment");
  exp_id_ = b.Attr(experiment_, "id", AtomicKind::kId);
  exp_type_ = b.Attr(experiment_, "type");
  exp_desc_ = b.Simple(experiment_, "description");
  exp_method_ = b.Rcd(experiment_, "method");
  exp_method_name_ = b.Simple(exp_method_, "name");
  exp_ontology_ = b.Simple(exp_method_, "ontology_ref");
  conditions_ = b.Rcd(experiment_, "conditions");  // sparse
  temperature_ = b.Simple(conditions_, "temperature", AtomicKind::kFloat);
  ph_ = b.Simple(conditions_, "ph", AtomicKind::kFloat);
  buffer_ = b.Simple(conditions_, "buffer");
  publication_ref_ =
      b.Simple(experiment_, "publication_ref", AtomicKind::kIdRef);
  host_organism_ref_ =
      b.Simple(experiment_, "host_organism_ref", AtomicKind::kIdRef);

  // --- publications -----------------------------------------------------------------
  publications_ = b.Rcd(b.Root(), "publications");
  publication_ = b.SetRcd(publications_, "publication");
  pub_pubmed_ = b.Attr(publication_, "pubmed", AtomicKind::kId);
  pub_title_ = b.Simple(publication_, "title");
  pub_journal_ = b.Simple(publication_, "journal");
  pub_year_ = b.Simple(publication_, "year", AtomicKind::kInt);
  pub_volume_ = b.Simple(publication_, "volume");
  pub_pages_ = b.Simple(publication_, "pages");
  pub_abstract_ = b.Simple(publication_, "abstract");
  pub_doi_ = b.Simple(publication_, "doi");
  pub_issue_ = b.Simple(publication_, "issue");
  authors_ = b.Rcd(publication_, "authors");
  author_ = b.SetSimple(authors_, "author");

  // --- pathways ------------------------------------------------------------------------
  pathways_ = b.Rcd(b.Root(), "pathways");
  pathway_ = b.SetRcd(pathways_, "pathway");
  path_id_ = b.Attr(pathway_, "id", AtomicKind::kId);
  path_name_ = b.Simple(pathway_, "name");
  path_category_ = b.Simple(pathway_, "category");
  path_desc_ = b.Simple(pathway_, "description");
  path_source_ref_ = b.Simple(pathway_, "source_ref", AtomicKind::kIdRef);
  member_ref_ = b.SetSimple(pathway_, "member_ref", AtomicKind::kIdRef);

  // --- domains (imported October 2005) ------------------------------------------------
  domains_ = b.Rcd(b.Root(), "domains");
  domain_ = b.SetRcd(domains_, "domain");
  dom_id_ = b.Attr(domain_, "id", AtomicKind::kId);
  dom_name_ = b.Simple(domain_, "name");
  dom_family_ = b.Simple(domain_, "family");
  dom_desc_ = b.Simple(domain_, "description");
  dom_length_ = b.Simple(domain_, "length", AtomicKind::kInt);
  dom_interpro_ = b.Simple(domain_, "interpro_id");
  dom_source_ref_ = b.Simple(domain_, "source_ref", AtomicKind::kIdRef);

  // --- value links (semantic endpoints are the enclosing entities) ----------
  l_organism_ref_ = b.Link(molecule_, organism_, organism_ref_, org_id_);
  l_external_ = b.Link(molecule_, source_, external_accession_, src_id_);
  l_pathway_ref_ = b.Link(annotations_, pathway_, pathway_ref_, path_id_);
  l_domain_hit_ = b.Link(domain_hit_, domain_, dh_domain_, dom_id_);
  l_interaction_ref_ =
      b.Link(molecule_, interaction_, interaction_ref_, int_id_);
  l_participant_a_ = b.Link(interaction_, molecule_, participant_a_, mol_id_);
  l_participant_b_ = b.Link(interaction_, molecule_, participant_b_, mol_id_);
  l_experiment_ref_ =
      b.Link(interaction_, experiment_, experiment_ref_, exp_id_);
  l_provenance_ = b.Link(interaction_, source_, provenance_source_, src_id_);
  l_publication_ref_ =
      b.Link(experiment_, publication_, publication_ref_, pub_pubmed_);
  l_host_organism_ =
      b.Link(experiment_, organism_, host_organism_ref_, org_id_);
  l_path_source_ = b.Link(pathway_, source_, path_source_ref_, src_id_);
  l_path_member_ = b.Link(pathway_, molecule_, member_ref_, mol_id_);
  l_dom_source_ = b.Link(domain_, source_, dom_source_ref_, src_id_);

  graph_ = std::move(b).Build();
}

Result<MimiDataset> MimiDataset::Make(MimiParams params) {
  if (static_cast<unsigned char>(params.version) >
      static_cast<unsigned char>(MimiVersion::kJan2006)) {
    return Status::InvalidArgument(
        "bad MiMI version " +
        std::to_string(static_cast<unsigned>(params.version)) +
        " (valid: 0 = Apr 2004, 1 = Jan 2005, 2 = Jan 2006)");
  }
  if (!std::isfinite(params.scale) || params.scale <= 0.0 ||
      params.scale > 1000.0) {
    return Status::InvalidArgument("MiMI scale must be in (0, 1000]");
  }
  return MimiDataset(params);
}

Result<MimiDataset::Counts> MimiDataset::CountsFor(MimiVersion v) const {
  // Chosen so Jan 2006 yields ~7M data elements (Table 1: 7,055k); earlier
  // versions reflect the deployment's growth and the October 2005
  // protein-domain import (Table 5).
  switch (v) {
    case MimiVersion::kApr2004:
      return Counts{300, 6, 30000, 70000, 12000, 20000, 800, 0, 1.0, 0.0,
                    1.0};
    case MimiVersion::kJan2005:
      return Counts{400, 11, 60000, 150000, 24000, 40000, 1800, 0, 1.3, 0.0,
                    1.2};
    case MimiVersion::kJan2006:
      return Counts{500, 18, 80000, 200000, 30000, 45000, 2500, 10000, 2.0,
                    0.8, 1.4};
  }
  return Status::InvalidArgument(
      "bad MiMI version " + std::to_string(static_cast<unsigned>(v)) +
      " (valid: 0 = Apr 2004, 1 = Jan 2005, 2 = Jan 2006)");
}

// ---------------------------------------------------------------------------
// Streaming generator
// ---------------------------------------------------------------------------

class MimiStream : public InstanceStream, public ShardedInstanceSource {
 public:
  /// Top-level entity sections in serial traversal order.
  enum Section {
    kOrganisms = 0,
    kSources,
    kMolecules,
    kInteractions,
    kExperiments,
    kPublications,
    kPathways,
    kDomains,
    kNumSections
  };

  explicit MimiStream(const MimiDataset* ds) : ds_(ds) {}

  const SchemaGraph& schema() const override { return ds_->schema(); }

  uint64_t NumUnits() const override {
    auto c = ds_->CountsFor(ds_->params_.version);
    if (!c.ok()) return 0;  // AcceptSkeleton reports the error
    uint64_t total = 0;
    for (int s = 0; s < kNumSections; ++s) total += SectionCount(*c, s);
    return total;
  }

 private:
  Status Emit(EventWriter* out) const override {
    return WalkContainers(out, /*with_units=*/true);
  }

  Status EmitSkeleton(EventWriter* out) const override {
    return WalkContainers(out, /*with_units=*/false);
  }

  Status EmitUnits(uint64_t begin, uint64_t end,
                   EventWriter* out) const override {
    MimiDataset::Counts c;
    SSUM_ASSIGN_OR_RETURN(c, ds_->CountsFor(ds_->params_.version));
    uint64_t base = 0;
    for (int s = 0; s < kNumSections && begin < end; ++s) {
      const uint64_t section_end = base + SectionCount(c, s);
      for (; begin < end && begin < section_end; ++begin) {
        EmitUnit(out, c, s, begin - base);
      }
      base = section_end;
    }
    return Status::OK();
  }

  ElementId Container(int s) const {
    const MimiDataset& d = *ds_;
    const ElementId containers[kNumSections] = {
        d.organisms_,   d.sources_,      d.molecules_, d.interactions_,
        d.experiments_, d.publications_, d.pathways_,  d.domains_};
    return containers[s];
  }

  uint64_t SectionCount(const MimiDataset::Counts& c, int s) const {
    auto n = [&](uint64_t base) {
      return static_cast<uint64_t>(static_cast<double>(base) *
                                       ds_->params_.scale +
                                   0.5);
    };
    switch (s) {
      case kOrganisms:
        return n(c.organisms);
      case kSources:
        return n(c.sources);
      case kMolecules:
        return n(c.molecules);
      case kInteractions:
        return n(c.interactions);
      case kExperiments:
        return n(c.experiments);
      case kPublications:
        return n(c.publications);
      case kPathways:
        return n(c.pathways);
      case kDomains:
        return n(c.domains);
    }
    return 0;
  }

  /// One generator per unit, forked from the base seed by (section, index):
  /// identical draws whether the unit is reached serially or from the
  /// middle of a shard.
  Rng UnitRng(int section, uint64_t index) const {
    return Rng(ds_->params_.seed)
        .Fork((static_cast<uint64_t>(section) << 48) | index);
  }

  void EmitUnit(EventWriter* out, const MimiDataset::Counts& c, int section,
                uint64_t index) const {
    Rng rng = UnitRng(section, index);
    switch (section) {
      case kOrganisms:
        EmitOrganism(out, &rng);
        break;
      case kSources:
        EmitSource(out);
        break;
      case kMolecules:
        EmitMolecule(out, &rng, c);
        break;
      case kInteractions:
        EmitInteraction(out, &rng);
        break;
      case kExperiments:
        EmitExperiment(out, &rng);
        break;
      case kPublications:
        EmitPublication(out, &rng);
        break;
      case kPathways:
        EmitPathway(out, &rng);
        break;
      case kDomains:
        EmitDomain(out, &rng);
        break;
    }
  }

  Status WalkContainers(EventWriter* out, bool with_units) const {
    MimiDataset::Counts c;
    SSUM_ASSIGN_OR_RETURN(c, ds_->CountsFor(ds_->params_.version));
    out->Enter(schema().root());
    for (int s = 0; s < kNumSections; ++s) {
      out->Enter(Container(s));
      if (with_units) {
        const uint64_t n = SectionCount(c, s);
        for (uint64_t i = 0; i < n; ++i) EmitUnit(out, c, s, i);
      }
      out->Leave(Container(s));
    }
    out->Leave(schema().root());
    return Status::OK();
  }

  void EmitOrganism(EventWriter* out, Rng* rng) const {
    const MimiDataset& d = *ds_;
    out->Enter(d.organism_);
    out->Leaf(d.org_id_);
    out->Leaf(d.org_name_);
    if (rng->NextBool(0.5)) out->Leaf(d.org_common_);
    if (rng->NextBool(0.4)) out->Leaf(d.strain_);
    out->Enter(d.taxonomy_);
    out->Leaf(d.kingdom_);
    out->Leaf(d.phylum_);
    out->Leaf(d.tax_class_);
    out->Leaf(d.tax_order_);
    out->Leaf(d.family_);
    out->Leaf(d.genus_);
    out->Leaf(d.species_);
    out->Leave(d.taxonomy_);
    if (rng->NextBool(0.3)) {
      out->Enter(d.genome_);
      out->Leaf(d.assembly_);
      out->Leaf(d.genome_size_);
      out->Leaf(d.gene_count_);
      out->Leave(d.genome_);
    }
    out->Leave(d.organism_);
  }

  void EmitSource(EventWriter* out) const {
    const MimiDataset& d = *ds_;
    out->Enter(d.source_);
    out->Leaf(d.src_id_);
    out->Leaf(d.src_name_);
    out->Leaf(d.src_version_);
    out->Leaf(d.src_url_);
    out->Leaf(d.src_imported_);
    out->Leaf(d.src_records_);
    out->Leaf(d.src_contact_);
    out->Leaf(d.src_license_);
    out->Leaf(d.src_citation_);
    out->Leave(d.source_);
  }

  void EmitExperiment(EventWriter* out, Rng* rng) const {
    const MimiDataset& d = *ds_;
    out->Enter(d.experiment_);
    out->Leaf(d.exp_id_);
    if (rng->NextBool(0.7)) out->Leaf(d.exp_type_);
    out->Leaf(d.exp_desc_);
    out->Enter(d.exp_method_);
    out->Leaf(d.exp_method_name_);
    if (rng->NextBool(0.6)) out->Leaf(d.exp_ontology_);
    out->Leave(d.exp_method_);
    if (rng->NextBool(0.05)) {  // sparse structured conditions
      out->Enter(d.conditions_);
      out->Leaf(d.temperature_);
      out->Leaf(d.ph_);
      out->Leaf(d.buffer_);
      out->Leave(d.conditions_);
    }
    out->Reference(d.l_publication_ref_);
    out->Leaf(d.publication_ref_);
    out->Reference(d.l_host_organism_);
    out->Leaf(d.host_organism_ref_);
    out->Leave(d.experiment_);
  }

  void EmitPublication(EventWriter* out, Rng* rng) const {
    const MimiDataset& d = *ds_;
    out->Enter(d.publication_);
    out->Leaf(d.pub_pubmed_);
    out->Leaf(d.pub_title_);
    out->Leaf(d.pub_journal_);
    out->Leaf(d.pub_year_);
    if (rng->NextBool(0.8)) out->Leaf(d.pub_volume_);
    if (rng->NextBool(0.8)) out->Leaf(d.pub_pages_);
    if (rng->NextBool(0.6)) out->Leaf(d.pub_abstract_);
    if (rng->NextBool(0.5)) out->Leaf(d.pub_doi_);
    if (rng->NextBool(0.7)) out->Leaf(d.pub_issue_);
    out->Enter(d.authors_);
    for (uint64_t a = 0, m = 1 + rng->NextPoisson(2.0); a < m; ++a) {
      out->Leaf(d.author_);
    }
    out->Leave(d.authors_);
    out->Leave(d.publication_);
  }

  void EmitPathway(EventWriter* out, Rng* rng) const {
    const MimiDataset& d = *ds_;
    out->Enter(d.pathway_);
    out->Leaf(d.path_id_);
    out->Leaf(d.path_name_);
    if (rng->NextBool(0.7)) out->Leaf(d.path_category_);
    if (rng->NextBool(0.5)) out->Leaf(d.path_desc_);
    out->Reference(d.l_path_source_);
    out->Leaf(d.path_source_ref_);
    for (uint64_t m = 0, k = rng->NextPoisson(8.0); m < k; ++m) {
      out->Reference(d.l_path_member_);
      out->Leaf(d.member_ref_);
    }
    out->Leave(d.pathway_);
  }

  void EmitDomain(EventWriter* out, Rng* rng) const {
    const MimiDataset& d = *ds_;
    out->Enter(d.domain_);
    out->Leaf(d.dom_id_);
    out->Leaf(d.dom_name_);
    out->Leaf(d.dom_family_);
    out->Leaf(d.dom_desc_);
    out->Leaf(d.dom_length_);
    if (rng->NextBool(0.8)) out->Leaf(d.dom_interpro_);
    out->Reference(d.l_dom_source_);
    out->Leaf(d.dom_source_ref_);
    out->Leave(d.domain_);
  }

  void EmitMolecule(EventWriter* out, Rng* rng,
                    const MimiDataset::Counts& c) const {
    const MimiDataset& d = *ds_;
    out->Enter(d.molecule_);
    out->Leaf(d.mol_id_);
    out->Leaf(d.mol_type_);
    out->Leaf(d.mol_name_);
    if (rng->NextBool(0.8)) out->Leaf(d.symbol_);
    if (rng->NextBool(0.6)) out->Leaf(d.mol_desc_);
    out->Leaf(d.created_);
    if (rng->NextBool(0.7)) out->Leaf(d.modified_);
    out->Reference(d.l_organism_ref_);
    out->Leaf(d.organism_ref_);
    if (rng->NextBool(0.9)) {
      out->Enter(d.sequence_);
      out->Leaf(d.seq_length_);
      out->Leaf(d.seq_checksum_);
      out->Leaf(d.seq_residues_);
      if (rng->NextBool(0.4)) out->Leaf(d.seq_form_);
      out->Leave(d.sequence_);
    }
    if (rng->NextBool(0.7)) {
      out->Enter(d.gene_);
      out->Leaf(d.locus_);
      out->Leaf(d.chromosome_);
      out->Leaf(d.gene_start_);
      out->Leaf(d.gene_end_);
      out->Leaf(d.strand_);
      if (rng->NextBool(0.3)) out->Leaf(d.map_location_);
      out->Leave(d.gene_);
    }
    if (rng->NextBool(0.6)) {
      out->Enter(d.protein_props_);
      out->Leaf(d.mol_weight_);
      out->Leaf(d.iso_point_);
      out->Leaf(d.prop_length_);
      out->Leave(d.protein_props_);
    }
    if (rng->NextBool(0.03)) {  // sparse solved structures
      out->Enter(d.structure_);
      out->Leaf(d.pdb_id_);
      out->Leaf(d.resolution_);
      out->Leaf(d.struct_method_);
      out->Leaf(d.chains_);
      out->Leaf(d.deposited_);
      out->Leave(d.structure_);
    }
    for (uint64_t i = 0, m = rng->NextPoisson(1.5); i < m; ++i) {
      out->Reference(d.l_external_);
      out->Leaf(d.external_accession_);
    }
    out->Enter(d.synonyms_);
    for (uint64_t i = 0, m = rng->NextPoisson(1.2); i < m; ++i)
      out->Leaf(d.synonym_);
    out->Leave(d.synonyms_);
    out->Enter(d.keywords_);
    for (uint64_t i = 0, m = rng->NextPoisson(1.5); i < m; ++i)
      out->Leaf(d.keyword_);
    out->Leave(d.keywords_);
    out->Enter(d.cellular_locations_);
    for (uint64_t i = 0, m = rng->NextPoisson(0.8); i < m; ++i)
      out->Leaf(d.cellular_location_);
    out->Leave(d.cellular_locations_);
    out->Enter(d.tissue_expressions_);
    for (uint64_t i = 0, m = rng->NextPoisson(0.5); i < m; ++i) {
      out->Enter(d.tissue_expression_);
      out->Leaf(d.tissue_);
      out->Leaf(d.level_);
      out->Leave(d.tissue_expression_);
    }
    out->Leave(d.tissue_expressions_);
    out->Enter(d.annotations_);
    for (uint64_t i = 0, m = rng->NextPoisson(c.go_per_molecule); i < m; ++i) {
      out->Enter(d.go_annotation_);
      out->Leaf(d.go_id_);
      out->Leaf(d.go_aspect_);
      out->Leaf(d.go_evidence_);
      out->Leaf(d.go_term_);
      out->Leave(d.go_annotation_);
    }
    for (uint64_t i = 0, m = rng->NextPoisson(0.4); i < m; ++i) {
      out->Reference(d.l_pathway_ref_);
      out->Leaf(d.pathway_ref_);
    }
    for (uint64_t i = 0, m = rng->NextPoisson(0.3); i < m; ++i)
      out->Leaf(d.function_note_);
    out->Leave(d.annotations_);
    for (uint64_t i = 0, m = rng->NextPoisson(c.domains_per_molecule); i < m;
         ++i) {
      out->Enter(d.domain_hit_);
      out->Reference(d.l_domain_hit_);
      out->Leaf(d.dh_domain_);
      out->Leaf(d.dh_start_);
      out->Leaf(d.dh_end_);
      out->Leaf(d.dh_score_);
      out->Leave(d.domain_hit_);
    }
    for (uint64_t i = 0,
                  m = rng->NextPoisson(c.interaction_refs_per_molecule);
         i < m; ++i) {
      out->Reference(d.l_interaction_ref_);
      out->Leaf(d.interaction_ref_);
    }
    out->Leave(d.molecule_);
  }

  void EmitInteraction(EventWriter* out, Rng* rng) const {
    const MimiDataset& d = *ds_;
    out->Enter(d.interaction_);
    out->Leaf(d.int_id_);
    out->Leaf(d.int_type_);
    out->Reference(d.l_participant_a_);
    out->Leaf(d.participant_a_);
    out->Reference(d.l_participant_b_);
    out->Leaf(d.participant_b_);
    for (uint64_t i = 0, m = 1 + rng->NextPoisson(0.9); i < m; ++i) {
      out->Reference(d.l_experiment_ref_);
      out->Leaf(d.experiment_ref_);
    }
    out->Enter(d.confidence_);
    out->Leaf(d.conf_score_);
    out->Leaf(d.conf_method_);
    out->Leave(d.confidence_);
    if (rng->NextBool(0.7)) {
      out->Enter(d.detection_);
      out->Leaf(d.det_method_);
      out->Leaf(d.det_class_);
      out->Leave(d.detection_);
    }
    if (rng->NextBool(0.02)) {  // sparse kinetics measurements
      out->Enter(d.kinetics_);
      out->Leaf(d.kd_);
      out->Leaf(d.kon_);
      out->Leaf(d.koff_);
      out->Leaf(d.kin_unit_);
      out->Leave(d.kinetics_);
    }
    for (uint64_t i = 0, m = rng->NextPoisson(0.3); i < m; ++i) {
      out->Enter(d.binding_site_);
      out->Leaf(d.site_start_);
      out->Leaf(d.site_end_);
      if (rng->NextBool(0.5)) out->Leaf(d.site_motif_);
      out->Leave(d.binding_site_);
    }
    out->Reference(d.l_provenance_);
    out->Leaf(d.provenance_source_);
    out->Leave(d.interaction_);
  }

  const MimiDataset* ds_;
};

std::unique_ptr<InstanceStream> MimiDataset::MakeStream() const {
  return std::make_unique<MimiStream>(this);
}

std::unique_ptr<ShardedInstanceSource> MimiDataset::MakeShardedSource() const {
  return std::make_unique<MimiStream>(this);
}

}  // namespace ssum
